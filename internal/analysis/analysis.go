// Package analysis is a small, dependency-free static-analysis
// framework plus the repo-specific analyzers behind `make lint`
// (cmd/sysplexlint). It mirrors the shape of golang.org/x/tools'
// go/analysis — Analyzer, Pass, Diagnostic, Facts, and an
// analysistest-style fixture harness — re-implemented on the standard
// library's go/ast and go/types so the tree stays free of external
// modules.
//
// Analysis is module-wide and summary-based: the Runner type-checks
// packages in dependency order, and each analyzer can export
// per-object facts (function summaries: locks acquired, goroutine
// liveness, enum constant sets) that analyzers of downstream packages
// consume, so cross-function and cross-package violations are visible
// even when no single function exhibits them. After every package has
// run, analyzers with a Finish hook report module-level findings (the
// whole-module lock-acquisition graph's cycles).
//
// The analyzers enforce the CF concurrency and determinism invariants
// the compiler cannot see (see DESIGN.md "Enforced invariants" and
// "Interprocedural enforcement"):
//
//   - lockorder: the CF lock hierarchy declared by `// lintlock:`
//     annotations (outer RWMutex → stripe → entry) is acquired
//     outer-before-inner, never sideways — including through call
//     chains: the locks held at a call site are checked against the
//     callee's transitive acquire summary, and the module-wide lock
//     graph is cycle-checked.
//   - atomicfield: a field accessed through sync/atomic functions is
//     never also accessed by plain load/store in the same package.
//   - wallclock: subsystems never read the wall clock directly; all
//     timing flows through vclock.Clock so runs stay drivable by the
//     simulated sysplex timer.
//   - duplexfront: structure commands outside internal/cf and
//     internal/cfrm go through the duplexed front, never a raw
//     *cf.Facility or concrete structure — the bypass that would
//     silently forfeit failover.
//   - cferr: CF command errors are never silently dropped; an ignored
//     ErrCFDown skips the rebuild path.
//   - ctxfirst: exported functions on the CF command path take
//     context.Context as their first parameter, so deadlines and
//     cancellation propagate end-to-end (DESIGN §10).
//   - goroleak: every goroutine spawned under internal/ has a provable
//     shutdown path — a loop that can exit (ctx/done select, bounded
//     range, error return) or a `// lintgo: <reason>` escape.
//   - wireproto: the cflink opcode and status-byte tables are
//     collision-free, and the status-to-sentinel index covers every
//     status (which commands exist and what they carry is the cf
//     command table, shared by both ends by construction).
//   - durability: raw *os.File writes in the DASD tree reach
//     (*os.File).Sync on some path, so no acknowledged bytes can sit
//     forever in the page cache; a deliberate group-commit deferral is
//     annotated `// lintsync: <reason>`.
//   - census: every `lint*:` suppression carries a non-empty reason,
//     so CI can refuse unexplained new escapes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through the pass. Packages are analyzed in dependency order, so
	// facts exported by a dependency's Run are visible here.
	Run func(*Pass) error
	// Finish, if non-nil, runs once per lint run after every package's
	// Run, for module-level findings accumulated in the fact store.
	Finish func(*ModulePass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (analyzers scope themselves by
	// it; fixture packages load under a non-exempt synthetic path).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	facts  *Facts
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportFact attaches a fact (a per-function or per-type summary) to
// obj for this pass's analyzer. Downstream packages — analyzed later in
// dependency order — read it with ImportFact.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	p.facts.set(p.Analyzer, obj, fact)
}

// ImportFact returns the fact attached to obj by this analyzer (in this
// package or any already-analyzed dependency), or nil.
func (p *Pass) ImportFact(obj types.Object) any {
	return p.facts.get(p.Analyzer, obj)
}

// ModuleState returns this analyzer's run-wide state, created by init
// on first use (the lockorder analyzer accumulates its module-wide lock
// graph here). Safe for concurrent passes.
func (p *Pass) ModuleState(init func() any) any {
	return p.facts.moduleState(p.Analyzer, init)
}

// ModulePass is the context of an analyzer's Finish hook: module-level
// reporting after every package has run.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	facts  *Facts
	report func(Diagnostic)
}

// Reportf records a module-level diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModuleState returns the analyzer's run-wide state (as Pass.ModuleState).
func (p *ModulePass) ModuleState(init func() any) any {
	return p.facts.moduleState(p.Analyzer, init)
}

// Facts is the run-wide store of analyzer-exported object facts and
// module state. One Facts instance spans one lint run (or one fixture
// load); passes of different packages share it, so it is
// mutex-guarded for the layer-parallel runner.
type Facts struct {
	mu     sync.Mutex
	objs   map[factKey]any
	module map[*Analyzer]any
}

type factKey struct {
	a   *Analyzer
	obj types.Object
}

// NewFacts returns an empty fact store for one run.
func NewFacts() *Facts {
	return &Facts{objs: make(map[factKey]any), module: make(map[*Analyzer]any)}
}

func (f *Facts) set(a *Analyzer, obj types.Object, fact any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objs[factKey{a, obj}] = fact
}

func (f *Facts) get(a *Analyzer, obj types.Object) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.objs[factKey{a, obj}]
}

func (f *Facts) moduleState(a *Analyzer, init func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.module[a]
	if !ok {
		s = init()
		f.module[a] = s
	}
	return s
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Analyzers returns every sysplexlint analyzer, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		AtomicField,
		WallClock,
		DuplexFront,
		CFErr,
		CtxFirst,
		GoroLeak,
		WireProto,
		Durability,
		Census,
	}
}

// RunPackage applies analyzers to one loaded package against a private
// fact store and returns their diagnostics, Finish hooks included. It
// is the single-package entry point (fixtures); module runs go through
// Runner, which threads one store across every package.
func RunPackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFacts()
	diags, err := runPackage(pkg, fset, analyzers, facts)
	if err != nil {
		return nil, err
	}
	fin, err := runFinish(fset, analyzers, facts)
	if err != nil {
		return nil, err
	}
	return append(diags, fin...), nil
}

// runPackage applies analyzers to one package against a shared store.
func runPackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			facts:    facts,
			report:   func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return out, nil
}

// runFinish runs the module-level hooks of analyzers that have one.
func runFinish(fset *token.FileSet, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			facts:    facts,
			report:   func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
	}
	return out, nil
}
