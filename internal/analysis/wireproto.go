package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sync"
)

// WireProto checks the two properties of the cflink wire protocol's
// byte tables that the code does not make true by construction.
// (Which commands exist, what each carries, and that both ends agree
// on it is one table in internal/cf that client and server both walk;
// there is nothing left to cross-check there.) The analyzer is
// annotation-driven:
//
//	// lintwire: table statuses
//	const ( codeOK uint8 = 0; ... )
//
// declares a wire table, checked collision-free: two constants sharing
// a byte value corrupt the stream.
//
//	// lintwire: index-of statuses
//	var codeSentinels = [...]error{ ... }
//
// declares a dense index over a table: every table constant below the
// 255 catch-all must index into the literal, so adding a status code
// without extending the sentinel table is caught at lint time.
var WireProto = &Analyzer{
	Name:   "wireproto",
	Doc:    "check wire-protocol byte tables for collisions and uncovered index tables",
	Run:    runWireProto,
	Finish: finishWireProto,
}

var (
	lintwireTableRE = regexp.MustCompile(`^//[ \t]*lintwire:[ \t]*table[ \t]+(\w+)`)
	lintwireIndexRE = regexp.MustCompile(`^//[ \t]*lintwire:[ \t]*index-of[ \t]+(\w+)`)
)

// wireCatchAll is the conventional "other/unknown" byte; a constant
// with this value is exempt from index-of coverage.
const wireCatchAll = 255

// wireState is the module-wide accumulation: declared tables and index
// declarations, settled in Finish (an index may live in another
// package than its table).
type wireState struct {
	mu      sync.Mutex
	tables  map[string][]wireTableConst
	indexes []wireIndex
}

type wireTableConst struct {
	name string
	val  uint64
}

type wireIndex struct {
	table string
	size  uint64
	pos   token.Pos
	name  string
}

func newWireState() any {
	return &wireState{tables: make(map[string][]wireTableConst)}
}

// runWireProto registers the package's lintwire annotations: tables
// (with the collision check) and index-of vars.
func runWireProto(pass *Pass) error {
	ws := pass.ModuleState(newWireState).(*wireState)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.CONST:
				if name, ok := wireAnn(lintwireTableRE, gd.Doc); ok {
					collectWireTable(pass, ws, gd, name)
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if table, ok := wireAnn(lintwireIndexRE, gd.Doc, vs.Doc); ok {
						collectWireIndex(pass, ws, vs, table)
					}
				}
			}
		}
	}
	return nil
}

func collectWireTable(pass *Pass, ws *wireState, gd *ast.GenDecl, name string) {
	var consts []wireTableConst
	byVal := make(map[uint64]string)
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, id := range vs.Names {
			cn, ok := pass.Info.Defs[id].(*types.Const)
			if !ok {
				continue
			}
			val, ok := constant.Uint64Val(cn.Val())
			if !ok {
				pass.Reportf(id.Pos(), "wire table %s constant %s is not an unsigned integer", name, id.Name)
				continue
			}
			if prev, dup := byVal[val]; dup {
				pass.Reportf(id.Pos(),
					"wire table %s collision: %s and %s share byte value %d; wire bytes must be unique",
					name, prev, id.Name, val)
			}
			byVal[val] = id.Name
			consts = append(consts, wireTableConst{name: id.Name, val: val})
		}
	}
	ws.mu.Lock()
	ws.tables[name] = consts
	ws.mu.Unlock()
}

func collectWireIndex(pass *Pass, ws *wireState, vs *ast.ValueSpec, table string) {
	if len(vs.Values) != 1 {
		pass.Reportf(vs.Pos(), "lintwire index-of %s must initialize with a single composite literal", table)
		return
	}
	lit, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit)
	if !ok {
		pass.Reportf(vs.Pos(), "lintwire index-of %s must initialize with a composite literal", table)
		return
	}
	ws.mu.Lock()
	ws.indexes = append(ws.indexes, wireIndex{
		table: table,
		size:  uint64(len(lit.Elts)),
		pos:   vs.Pos(),
		name:  vs.Names[0].Name,
	})
	ws.mu.Unlock()
}

// finishWireProto settles index-of coverage once every package's
// tables are known.
func finishWireProto(mp *ModulePass) error {
	ws := mp.ModuleState(newWireState).(*wireState)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, idx := range ws.indexes {
		consts, ok := ws.tables[idx.table]
		if !ok {
			mp.Reportf(idx.pos, "lintwire index-of names unknown wire table %q", idx.table)
			continue
		}
		for _, c := range consts {
			if c.val != wireCatchAll && c.val >= idx.size {
				mp.Reportf(idx.pos,
					"index table %s has %d entries but wire table %s constant %s = %d is out of range; extend the table when adding a code",
					idx.name, idx.size, idx.table, c.name, c.val)
			}
		}
	}
	return nil
}

// wireAnn finds a lintwire annotation matching re in the comment
// groups and returns its table name.
func wireAnn(re *regexp.Regexp, groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := re.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}
