package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DuplexFront keeps structure commands on the CFRM duplexed front.
// Exploiters hold the cf.Front/Lock/Cache/List *interfaces*, which the
// sysplex façade satisfies with the duplexed pair; code that instead
// allocates, locates, or drives structures on a concrete *cf.Facility
// (or a concrete *cf.LockStructure/CacheStructure/ListStructure) runs
// simplex against one replica — it silently forfeits duplexing,
// in-line failover, and rebuild. The same bypass exists over the wire:
// a raw cflink.Client is one remote replica, so dialing links and
// issuing structure commands on the client handle outside the CF
// plumbing forfeits exactly the same machinery (remote fleets are
// declared in cfrm.Policy.Nodes). Only internal/cf, internal/cfrm, and
// internal/cflink may touch the raw types; cmd/ and examples/ may
// bench the raw command path by design.
var DuplexFront = &Analyzer{
	Name: "duplexfront",
	Doc:  "forbid raw *cf.Facility/structure/*cflink.Client command use outside the CF plumbing",
	Run:  runDuplexFront,
}

const (
	cfPkgPath     = "sysplex/internal/cf"
	cflinkPkgPath = "sysplex/internal/cflink"
)

// facilityCmdMethods are the *cf.Facility methods that create, locate,
// free, or mutate structures — the command surface that must flow
// through the duplexed front so both replicas stay in step.
// Observability and failure injection (Name, Metrics, Storage,
// StructureNames, Fail, FailAfter, Failed, SetSyncLatency) stay legal
// on a raw facility.
var facilityCmdMethods = map[string]bool{
	"AllocateLockStructure":  true,
	"AllocateCacheStructure": true,
	"AllocateListStructure":  true,
	"LockStructure":          true,
	"CacheStructure":         true,
	"ListStructure":          true,
	"Deallocate":             true,
	"FailConnector":          true,
	"DisconnectAll":          true,
}

// cfConstructors build raw facilities; fleet construction belongs to
// CFRM policy.
var cfConstructors = map[string]bool{
	"New":            true,
	"NewWithStorage": true,
	"NewDuplexed":    true,
}

// clientCmdMethods are the cflink.Client methods mirroring the raw
// facility's command surface; observability and failure injection stay
// legal on a raw client, as they do on a raw facility.
var clientCmdMethods = map[string]bool{
	"AllocateLockStructure":  true,
	"AllocateCacheStructure": true,
	"AllocateListStructure":  true,
	"Structure":              true,
	"Deallocate":             true,
	"Fence":                  true,
}

func duplexFrontExempt(path string) bool {
	return path == cfPkgPath ||
		path == "sysplex/internal/cfrm" ||
		path == cflinkPkgPath ||
		strings.HasPrefix(path, "sysplex/cmd/") ||
		strings.HasPrefix(path, "sysplex/examples/")
}

func runDuplexFront(pass *Pass) error {
	if duplexFrontExempt(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Raw facility construction: cf.New / cf.NewWithStorage /
			// cf.NewDuplexed.
			if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
				switch {
				case fn.Pkg().Path() == cfPkgPath && cfConstructors[fn.Name()]:
					pass.Reportf(call.Pos(),
						"raw coupling-facility construction cf.%s: facilities are owned by CFRM policy (cfrm.New); exploiters take a cf.Front",
						fn.Name())
					return true
				case fn.Pkg().Path() == cflinkPkgPath && fn.Name() == "Dial":
					pass.Reportf(call.Pos(),
						"raw CF link construction cflink.Dial: a dialed client is one remote replica; remote fleets are declared in cfrm.Policy.Nodes and exploiters take a cf.Front",
					)
					return true
				}
			}
			// Method calls on concrete cf types.
			msel := pass.Info.Selections[sel]
			if msel == nil || msel.Kind() != types.MethodVal {
				return true
			}
			name := sel.Sel.Name
			if isCFLinkClient(msel.Recv()) {
				if clientCmdMethods[name] {
					pass.Reportf(call.Pos(),
						"structure command %s on a raw *cflink.Client binds to one remote replica and bypasses the duplexed front; hand the client to cfrm.Policy.Nodes and go through the cf.Front",
						name)
				}
				return true
			}
			recv := concreteCFType(msel.Recv())
			if recv == "" {
				return true
			}
			switch recv {
			case "Facility":
				if facilityCmdMethods[name] {
					pass.Reportf(call.Pos(),
						"structure command %s on a raw *cf.Facility bypasses the duplexed front: duplexing, in-line failover, and rebuild are forfeited; go through the cf.Front the sysplex façade provides",
						name)
				}
			case "LockStructure", "CacheStructure", "ListStructure":
				pass.Reportf(call.Pos(),
					"command %s on a concrete *cf.%s binds to one replica and bypasses the duplexed front; hold the cf.%s interface instead",
					name, recv, strings.TrimSuffix(recv, "Structure"))
			}
			return true
		})
	}
	return nil
}

// concreteCFType returns the bare name of the concrete cf named type
// behind t ("" when t is not one of the guarded types; the
// cf.Front/Lock/Cache/List interfaces and the typed fronts resolve
// to "" and stay legal).
func concreteCFType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != cfPkgPath {
		return ""
	}
	switch obj.Name() {
	case "Facility", "LockStructure", "CacheStructure", "ListStructure":
		return obj.Name()
	}
	return ""
}

// isCFLinkClient reports whether t is *cflink.Client (or cflink.Client).
func isCFLinkClient(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == cflinkPkgPath && obj.Name() == "Client"
}
