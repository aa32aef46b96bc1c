// Command sysplexlint is the repo's static-analysis multichecker: it
// type-checks every package of the module in dependency order and runs
// the analyzers of internal/analysis, which enforce the CF concurrency,
// determinism, and wire-protocol invariants (interprocedural lock
// hierarchy with module-wide deadlock-cycle detection, atomic-only
// fields, the simulated-clock rule, the duplexed-front rule, dropped CF
// command errors, context-first command signatures, goroutine shutdown
// paths, wire-table exhaustiveness, and the suppression census). See
// DESIGN.md "Enforced invariants" and "Interprocedural enforcement".
//
// Packages are type-checked and analyzed in parallel dependency waves;
// analyzer facts (per-function summaries) flow from each package to its
// importers, which is what makes the cross-package checks sound.
//
// Usage:
//
//	sysplexlint [-only lockorder,cferr] [-jobs N] [-json] [-list] [-v]
//
// -json writes a machine-readable report (diagnostics plus the
// suppression census of every lint*: escape) to stdout instead of the
// human format. Exit status: 0 clean, 1 diagnostics reported, 2
// load/usage failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sysplex/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print wave/package progress while checking")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max packages type-checked/analyzed concurrently")
	flag.Parse()

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "sysplexlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysplexlint: %v\n", err)
		os.Exit(2)
	}

	loadStart := time.Now()
	waves, err := loader.LoadModule(*jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysplexlint: %v\n", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)
	if *verbose {
		for i, wave := range waves {
			names := make([]string, len(wave))
			for j, p := range wave {
				names[j] = p.Path
			}
			fmt.Fprintf(os.Stderr, "sysplexlint: wave %d: %s\n", i, strings.Join(names, " "))
		}
	}

	analyzeStart := time.Now()
	runner := &analysis.Runner{Loader: loader, Analyzers: analyzers, Jobs: *jobs}
	diags, err := runner.Analyze(waves)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysplexlint: %v\n", err)
		os.Exit(2)
	}
	analyzeTime := time.Since(analyzeStart)

	if *jsonOut {
		rep := analysis.BuildReport(loader, waves, analyzers, diags)
		rep.LoadMillis = loadTime.Milliseconds()
		rep.AnalyzeMillis = analyzeTime.Milliseconds()
		rep.Jobs = *jobs
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "sysplexlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: %s (%s)\n",
				relTo(loader.ModuleRoot, pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}

	npkgs := 0
	for _, wave := range waves {
		npkgs += len(wave)
	}
	fmt.Fprintf(os.Stderr, "sysplexlint: %d packages in %d waves, %d analyzers, %d jobs: load %v + analyze %v = %v\n",
		npkgs, len(waves), len(analyzers), *jobs,
		loadTime.Round(time.Millisecond), analyzeTime.Round(time.Millisecond),
		(loadTime + analyzeTime).Round(time.Millisecond))
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sysplexlint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}

// relTo strips the module root from a path for compact, clickable
// diagnostics when linting from the root.
func relTo(root, path string) string {
	return strings.TrimPrefix(path, root+string(os.PathSeparator))
}
