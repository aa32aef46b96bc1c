// Package rmf is the sysplex measurement subsystem, modeled on RMF
// (Resource Measurement Facility) feeding SMF interval records: an
// interval-driven collector samples typed gauges and deltas from every
// layer — CF structure occupancy and command latency, XI and
// list-transition rates, CFRM duplex fan-out and failover counts, lock
// false contention, WLM goal attainment, System Logger offload
// throughput — on the virtual clock, and emits one versioned JSON
// record per interval onto a dedicated log stream (SYSPLEX.RMF.DATA),
// dogfooding internal/logr so the measurement data itself is
// sysplex-merged, totally ordered, and survives offload.
//
// The reporting taxonomy follows Devlin, Gray, Laing & Spix: the
// sysplex is a *farm*, the member systems are *clones* (replicated
// peers serving the same work), and the CF structures are *partitions*
// (state split by function across the shared facility).
package rmf

import (
	"encoding/json"
	"fmt"
	"time"

	"sysplex/internal/metrics"
)

// StreamName is the log stream RMF interval records are written to.
const StreamName = "SYSPLEX.RMF.DATA"

// RecordVersion is bumped whenever the record layout changes
// incompatibly; readers reject versions they do not understand.
const RecordVersion = 1

// Record is one SMF-style interval record: everything the sysplex
// measured between Start and End. Field names are deliberately short —
// records must fit logr's 3 KiB record cap.
type Record struct {
	V    int    `json:"v"`
	Farm string `json:"farm"`
	// Seq is the dense interval sequence number: consecutive records
	// differ by exactly 1, which is what lets readers prove continuity
	// (no lost and no duplicated intervals) across CF failovers.
	Seq   int64 `json:"seq"`
	Start int64 `json:"start"` // interval start, unix µs on the sysplex clock
	End   int64 `json:"end"`   // interval end, unix µs

	CF     CFSection     `json:"cf"`
	CFRM   CFRMSection   `json:"cfrm"`
	Logger LoggerSection `json:"logr"`
	// DASD reports shared-disk activity; present only when the monitor
	// was given the farm's registry.
	DASD *DASDSection `json:"dasd,omitempty"`
	// Restart is present on exactly one record per sysplex cold boot:
	// the one cut by CutRestart when Open finishes recovery.
	Restart *RestartSection `json:"restart,omitempty"`

	// Clones are the per-system sections, sorted by system name.
	Clones []Clone `json:"clones"`
	// Partitions are the per-structure sections, sorted by name.
	Partitions []Partition `json:"partitions"`

	// Truncated is set when partition/clone sections were dropped to
	// fit the record under the log-stream record cap.
	Truncated bool `json:"truncated,omitempty"`
}

// LatencySummary compresses a metrics.Histogram for the record: the
// number of observations made *during the interval* plus cumulative
// quantiles in microseconds.
type LatencySummary struct {
	N    int64   `json:"n"`
	Mean float64 `json:"meanus"`
	P50  float64 `json:"p50us"`
	P99  float64 `json:"p99us"`
}

// summarize builds a LatencySummary from a histogram snapshot and the
// previous interval's cumulative count.
func summarize(s metrics.Snapshot, prevCount int64) LatencySummary {
	n := s.Count - prevCount
	if n < 0 { // source replaced (CF failover swapped the registry)
		n = s.Count
	}
	return LatencySummary{
		N:    n,
		Mean: round2(s.Mean * 1e6),
		P50:  round2(s.P50 * 1e6),
		P99:  round2(s.P99 * 1e6),
	}
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// CFSection aggregates the primary coupling facility's command
// activity over the interval (all counts are interval deltas).
type CFSection struct {
	Facility string `json:"fac"`
	// Ops is the total CF commands completed this interval.
	Ops int64 `json:"ops"`
	// XI is cache cross-invalidate signals delivered this interval.
	XI int64 `json:"xi"`
	// Transitions is list empty/non-empty transition signals.
	Transitions int64 `json:"trans"`
	// Hits/Misses are cache directory read outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Latency summarizes cf.cmd.latency.
	Latency LatencySummary `json:"lat"`
}

// CFRMSection reports the duplexing front over the interval.
type CFRMSection struct {
	State     string `json:"state"` // duplexed | syncing | simplex
	Primary   string `json:"pri"`
	Secondary string `json:"sec,omitempty"`
	// Failovers/Retried/Reduplexes are interval deltas.
	Failovers  int64 `json:"failovers"`
	Retried    int64 `json:"retried"`
	Reduplexes int64 `json:"reduplexes"`
	// Fanout summarizes cfrm.duplex.fanout (mirrored-command cost).
	Fanout LatencySummary `json:"fanout"`
	// Batches/BatchOps are interval deltas of batched-command
	// envelopes and the subcommands they carried; MeanBatch is ops
	// per envelope (the link-amortization factor).
	Batches   int64   `json:"batches,omitempty"`
	BatchOps  int64   `json:"batchops,omitempty"`
	MeanBatch float64 `json:"meanbatch,omitempty"`
	// BatchOcc is the interval ops-per-batch occupancy histogram
	// (fixed buckets "1", "2_7", "8_31", "32_127", "128p" ->
	// envelope count); empty buckets are omitted.
	BatchOcc map[string]int64 `json:"batchocc,omitempty"`
}

// LoggerSection reports System Logger activity over the interval
// (sysplex-wide: every member charges the same registry).
type LoggerSection struct {
	Writes         int64 `json:"writes"`
	Offloads       int64 `json:"offloads"`
	OffloadRecords int64 `json:"offrecs"`
	OffloadBytes   int64 `json:"offbytes"`
}

// DASDSection reports the shared DASD farm over the interval. On a
// durable farm the fsync figures measure the group-commit path — the
// cost every acknowledged log write and couple-data-set update pays.
type DASDSection struct {
	// Reads/Writes are interval block-I/O deltas, farm-wide.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// ReserveBusy counts reserve attempts that found the device held by
	// another system (the serialization cost §2 warns about).
	ReserveBusy int64 `json:"resbusy,omitempty"`
	// Fsyncs is the number of group commits; FsyncLatency summarizes
	// dasd.fsync.latency. Both are zero on an in-memory farm.
	Fsyncs       int64          `json:"fsyncs,omitempty"`
	FsyncLatency LatencySummary `json:"fsynclat"`
	// Volumes breaks I/O out per volume serial, sorted; volumes with no
	// activity this interval are omitted.
	Volumes []VolumeIO `json:"vols,omitempty"`
}

// VolumeIO is one volume's interval I/O counts.
type VolumeIO struct {
	Volser string `json:"vol"`
	Reads  int64  `json:"reads,omitempty"`
	Writes int64  `json:"writes,omitempty"`
}

// RestartSection reports one sysplex cold restart: how long the
// recovery pass took and how much state each layer rebuilt. It is the
// restart-recovery-time record the EXP-RESTART experiment reads.
type RestartSection struct {
	// RecoveryUS is the wall time from the first volume reattach to the
	// end of the recovery pass, in microseconds on the sysplex clock.
	RecoveryUS int64 `json:"recoveryus"`
	// LogStreams/LogRecords count System Logger streams that needed
	// cold recovery and the staged records re-inserted into interim
	// storage.
	LogStreams int64 `json:"logstreams"`
	LogRecords int64 `json:"logrecords"`
	// Transactions/RedoApplied are the database redo pass: committed
	// transactions replayed from the merged WAL streams and the
	// page-level after-images applied.
	Transactions int `json:"txs"`
	RedoApplied  int `json:"redo"`
	// Restarts counts ARM elements re-driven because their recorded
	// system did not return.
	Restarts int `json:"restarts"`
}

// Clone is one member system's interval section (Gray: a clone —
// a replicated peer serving the same workload).
type Clone struct {
	System string `json:"sys"`
	// Locks/Contentions/FalseCont are interval deltas from the
	// system's IRLM-style lock manager.
	Locks      int64 `json:"locks"`
	Contention int64 `json:"cont"`
	FalseCont  int64 `json:"falsecont"`
	// FalseRate is FalseCont / Locks for the interval (the paper's
	// "false lock contention" tuning target, §3.3.1).
	FalseRate float64 `json:"falserate"`
	// Batches/BatchOps are interval deltas of the system's batched CF
	// envelopes and the subcommands they carried (attributed by the
	// batch's connector name).
	Batches  int64 `json:"batches,omitempty"`
	BatchOps int64 `json:"batchops,omitempty"`
	// Util is WLM's utilization estimate at interval end.
	Util float64 `json:"util"`
	// Goals is WLM goal attainment per service class.
	Goals []ClassGoal `json:"goals,omitempty"`
}

// ClassGoal is WLM goal attainment for one service class. PI > 1
// means the class is missing its goal.
type ClassGoal struct {
	Class       string  `json:"class"`
	PI          float64 `json:"pi"`
	Completions int64   `json:"done"`
	MeanRespMs  float64 `json:"respms"`
	Velocity    float64 `json:"vel"`
}

// Partition is one CF structure's interval section (Gray: a partition
// — shared state split by function).
type Partition struct {
	Name  string `json:"name"`
	Model string `json:"model"` // lock | cache | list
	// Occupancy is the model-appropriate fill level: list structures
	// report total queued entries, cache structures report changed
	// blocks awaiting castout, lock structures report table size.
	Occupancy int `json:"occ"`
}

// Marshal encodes the record, dropping partition then clone detail if
// needed to fit under cap bytes (logr.MaxRecord). It never fails to
// fit: the fixed sections alone are far under the cap.
func (r Record) Marshal(cap int) ([]byte, error) {
	for {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		if len(b) <= cap {
			return b, nil
		}
		switch {
		case len(r.Partitions) > 0:
			r.Partitions = r.Partitions[:len(r.Partitions)-1]
		case len(r.Clones) > 0:
			r.Clones = r.Clones[:len(r.Clones)-1]
		default:
			return nil, fmt.Errorf("rmf: record %d bytes exceeds cap %d with no droppable sections", len(b), cap)
		}
		r.Truncated = true
	}
}

// Unmarshal decodes one record, rejecting unknown versions.
func Unmarshal(data []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return Record{}, fmt.Errorf("rmf: bad record: %w", err)
	}
	if r.V != RecordVersion {
		return Record{}, fmt.Errorf("rmf: record version %d, want %d", r.V, RecordVersion)
	}
	return r, nil
}

// Interval reports the record's covered duration.
func (r Record) Interval() time.Duration {
	return time.Duration(r.End-r.Start) * time.Microsecond
}
