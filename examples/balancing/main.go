// Balancing: the §2.3 argument made concrete. The same skewed OLTP
// workload is run against (a) the data-sharing sysplex, where any
// system can execute any transaction and WLM balances the load, and
// (b) a shared-nothing cluster, where transactions are bound to the
// partition owner — which saturates while its peers idle. It also
// shows the repartitioning cost the shared-nothing design pays to grow.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"sysplex"
	"sysplex/internal/partition"
	"sysplex/internal/scalemodel"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

func main() {
	modelComparison()
	functionalComparison()
	repartitionCost()
}

// modelComparison solves the throughput/latency table from the
// queueing model, for uniform load and growing skew.
func modelComparison() {
	params := scalemodel.DefaultParams()
	const m = 4
	offered := 0.7 * m * 1000 / params.BaseServiceMS
	fmt.Printf("queueing model: %d systems, offered %.0f tps, a growing share of accesses to one partition\n", m, offered)
	fmt.Printf("  %-12s %5s %8s %8s %9s  %s\n", "MODE", "SKEW", "OFFERED", "ACHIEVED", "RESP(ms)", "UTIL[min,max]")
	for _, skew := range []float64{0.25, 0.4, 0.6, 0.8} {
		for _, mode := range []string{"sharing", "partitioned"} {
			r := scalemodel.Skew(mode, m, skew, offered, params)
			resp := fmt.Sprintf("%.1f", r.MeanRespMS)
			if math.IsInf(r.MeanRespMS, 1) {
				resp = "unbounded"
			}
			fmt.Printf("  %-12s %5.2f %8.0f %8.0f %9s  [%3.0f%%, %3.0f%%]\n",
				r.Mode, r.Skew, r.OfferedTPS, r.Throughput, resp, 100*r.UtilMin, 100*r.UtilMax)
		}
	}
	fmt.Println()
}

// functionalComparison shows where operations execute in each design.
func functionalComparison() {
	// Data-sharing sysplex: the hot records live in shared storage; any
	// system updates them directly.
	plex, err := sysplex.New(context.Background(), sysplex.DefaultConfig("PLEX1", 3))
	if err != nil {
		log.Fatal(err)
	}
	defer plex.Stop()
	plex.RegisterProgram("HIT", 1, func(tx *sysplex.Tx, input []byte) ([]byte, error) {
		v, _, err := tx.Get("ACCT", string(input))
		if err != nil {
			return nil, err
		}
		return v, nil
	})
	for i := 0; i < 300; i++ {
		if _, err := plex.SubmitViaLogon(context.Background(), "HIT", []byte("HOTKEY")); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("functional sysplex: 300 reads of one hot record, submitted via generic logon")
	for _, st := range plex.Stats() {
		fmt.Printf("  %s executed %d transactions locally\n", st.System, st.Region.LocalRuns+st.Region.RoutedIn)
	}

	// Shared-nothing: every access to the hot key lands on its owner.
	snplex := xcf.NewSysplex("SN", vclock.Real(), nil, nil, xcf.Options{})
	cluster := partition.NewCluster(vclock.Real())
	nodes := map[string]*partition.Node{}
	for _, name := range []string{"NODE1", "NODE2", "NODE3"} {
		s, err := snplex.Join(name)
		if err != nil {
			log.Fatal(err)
		}
		n, _, err := cluster.AddNode(s)
		if err != nil {
			log.Fatal(err)
		}
		nodes[name] = n
	}
	owner, _ := cluster.Owner("HOTKEY")
	nodes[owner].Put("HOTKEY", []byte("v"))
	for _, n := range nodes {
		for i := 0; i < 100; i++ {
			if _, err := n.Get("HOTKEY"); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("shared-nothing: 300 reads of the same hot record (owner = %s)\n", owner)
	for name, n := range nodes {
		st := n.Stats()
		fmt.Printf("  %s: local=%d shipped-out=%d served-for-others=%d\n",
			name, st.LocalOps, st.RemoteOps, st.ServedOps)
	}
	fmt.Println()
}

// repartitionCost contrasts §2.4 growth in both designs.
func repartitionCost() {
	snplex := xcf.NewSysplex("SN2", vclock.Real(), nil, nil, xcf.Options{})
	cluster := partition.NewCluster(vclock.Real())
	s1, _ := snplex.Join("NODE1")
	n1, _, _ := cluster.AddNode(s1)
	for i := 0; i < 10000; i++ {
		n1.Put(fmt.Sprintf("key%05d", i), []byte("v"))
	}
	s2, _ := snplex.Join("NODE2")
	_, moved2, _ := cluster.AddNode(s2)
	s3, _ := snplex.Join("NODE3")
	_, moved3, _ := cluster.AddNode(s3)
	fmt.Println("growth cost with 10,000 records loaded:")
	fmt.Printf("  shared-nothing: adding node 2 moved %d records; adding node 3 moved %d more\n", moved2, moved3)
	fmt.Println("  parallel sysplex: adding a system moves 0 records — data stays shared (§2.4)")
}
