package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Durability machine-checks the ordering idioms replication and 2PC rest
// on, in the three packages that own durable state: ldbs, shard, and wire.
// The invariants are exactly the ones PAPERS.md's fault-tolerant-commit
// line warns rot silently — the bug is invisible until a crash lands in
// the reordered window:
//
//  1. Durable-before-visible. A recognized visibility sink (follower ack,
//     in-memory apply) must be preceded, in the function's statement
//     order, by a recognized durability barrier (WAL append+sync, flush,
//     checkpoint). ldbs/repl.go's applyGroup is the canonical shape:
//     AppendGroup, then applyWrites.
//  2. Log-before-decide. Sending a commit decision — a call named Decide
//     carrying a literal `true` — requires an earlier LogDecide in the
//     same function: the CoordLog fsync is the commit point, the RPC is
//     only its announcement.
//  3. Atomic state files. REPL_EPOCH / REPL_CURSOR-style fencing files
//     must be written via the temp+fsync+rename idiom (WriteReplEpoch is
//     canonical): a direct os.WriteFile/os.Create of a protected name is
//     flagged, and an os.Rename onto one requires an earlier Sync.
//  4. Fixed-offset commit records. The disk driver's superblock is the
//     storage-engine commit point: a function registered in
//     durabilityFixedOffset (installSuperblock) must follow every WriteAt
//     with a Sync before returning — the in-place write is durable only
//     after the fsync, and a torn un-synced slot is exactly the window
//     dual-slot superblocks exist to close.
//
// The analyzer is a registry, not a points-to analysis: functions opt into
// a role by bearing a registered name (durabilityBarriers,
// durabilitySinks, durabilityStateFiles below — docs/STATIC_ANALYSIS.md
// mirrors the table). New durable code joins the check by naming its
// barrier and sink functions accordingly; a deliberate exception (e.g. a
// decision re-delivered from the coordinator log, already durable there)
// carries a reasoned //lint:ignore gtmlint/durability. The scan is linear
// in statement order and not path-sensitive — like the rest of the suite
// it prefers a checkable under-approximation to an unsound precise one.
var Durability = &Analyzer{
	Name: "durability",
	Doc:  "durable-before-visible, log-before-decide, and atomic state-file idioms in ldbs/shard/wire",
	Run:  runDurability,
}

// durabilityBarriers are the functions after which data is durable: calling
// any of these arms the visibility sinks for the rest of the function.
var durabilityBarriers = map[string]bool{
	"Sync":          true, // os.File fsync
	"syncDir":       true, // directory-entry fsync after rename
	"Flush":         true, // WAL flush-and-fsync
	"WaitDurable":   true, // group-commit durability wait
	"AppendGroup":   true, // WAL group append (syncs per group-commit policy)
	"Checkpoint":    true, // full-state checkpoint
	"LogDecide":     true, // CoordLog decide record + fsync
	"applyFrames":   true, // follower frame ingest: durable (WAL+cursor) on return
	"adoptSnapshot": true, // follower resync: durable (checkpoint+cursor) on return
	"flushPages":    true, // disk driver: write every dirty page + fsync
}

// durabilitySinks make replicated state visible to the outside: an ack the
// primary will trust, or the in-memory apply reads are served from.
var durabilitySinks = map[string]bool{
	"sendAck":     true,
	"applyWrites": true,
	// Advancing the superblock makes the epoch's copy-on-write pages the
	// recovery image: if they were not flushed first, recovery follows the
	// new root into pages that may never have hit the disk.
	"installSuperblock": true,
}

// durabilityFixedOffset names the functions that commit state by writing
// in place at a fixed offset (no rename possible): every WriteAt inside
// them must be followed by a Sync before the function returns.
var durabilityFixedOffset = map[string]bool{
	"installSuperblock": true,
}

// durabilityStateFiles are the fencing/progress files that must be
// replaced atomically (temp file, Sync, Rename).
var durabilityStateFiles = map[string]bool{
	"REPL_EPOCH":  true,
	"REPL_CURSOR": true,
}

func runDurability(pass *Pass) {
	if !durabilityActivePath(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			durScanFunc(pass, fd)
		}
	}
}

// durabilityActivePath limits the analyzer to the packages that own
// durable state.
func durabilityActivePath(path string) bool {
	// Suffix matching is per path segment, so the store subpackages are
	// listed explicitly: the contract package and both drivers.
	for _, p := range []string{
		"internal/ldbs", "internal/shard", "internal/wire",
		"internal/ldbs/store", "internal/ldbs/store/mem", "internal/ldbs/store/disk",
	} {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// durScanFunc walks one function body in source order, arming barriers and
// reporting sinks, decides, and state-file writes that precede them.
func durScanFunc(pass *Pass, fd *ast.FuncDecl) {
	barrierSeen := false
	logDecideSeen := false
	syncSeen := false
	fixedOffset := durabilityFixedOffset[fd.Name.Name]
	unsyncedWriteAt := token.NoPos // last WriteAt with no Sync after it yet
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := durCalleeName(pass, call)
		if name == "" {
			return true
		}
		if fixedOffset {
			switch name {
			case "WriteAt":
				unsyncedWriteAt = call.Pos()
			case "Sync":
				unsyncedWriteAt = token.NoPos
			}
		}
		if f := calleeFunc(pass.Info, call); f != nil {
			switch {
			case isPkgFunc(f, "os", "WriteFile"), isPkgFunc(f, "os", "Create"):
				if len(call.Args) > 0 && durProtectedArg(pass, call.Args[0]) {
					pass.Reportf(call.Pos(), "direct %s of a protected state file: write a temp file, Sync it, then os.Rename (WriteReplEpoch is the canonical shape)", name)
				}
				return true
			case isPkgFunc(f, "os", "Rename"):
				if len(call.Args) == 2 && durProtectedArg(pass, call.Args[1]) && !syncSeen {
					pass.Reportf(call.Pos(), "os.Rename onto a protected state file without an earlier Sync: the rename can land before the contents are durable")
				}
				return true
			}
		}
		switch {
		case name == "Decide" && durLiteralTrueArg(pass, call):
			if !logDecideSeen {
				pass.Reportf(call.Pos(), "commit decision sent before LogDecide: the CoordLog fsync is the commit point and must dominate the decide reply (//lint:ignore gtmlint/durability with a reason if the decision is already durable, e.g. recovered from the log)")
			}
		case durabilitySinks[name]:
			if !barrierSeen {
				pass.Reportf(call.Pos(), "%s makes replicated state visible before any durability barrier (%s): append and sync the WAL first — durable-before-visible", name, durBarrierHint)
			}
		case durabilityBarriers[name]:
			barrierSeen = true
			if name == "Sync" {
				syncSeen = true
			}
			if name == "LogDecide" {
				logDecideSeen = true
			}
		}
		return true
	})
	if unsyncedWriteAt.IsValid() {
		pass.Reportf(unsyncedWriteAt, "%s returns with a WriteAt not followed by Sync: a fixed-offset commit record is durable only after the fsync", fd.Name.Name)
	}
}

// durBarrierHint keeps the finding self-explanatory without dumping the
// whole registry.
const durBarrierHint = "AppendGroup/Flush/Sync/Checkpoint/flushPages — see durabilityBarriers"

// durCalleeName names a call's target: the resolved function or method if
// type information has one (interface methods included), else the bare
// selector so registry names still match through wrappers.
func durCalleeName(pass *Pass, call *ast.CallExpr) string {
	if f := calleeFunc(pass.Info, call); f != nil {
		return f.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// durLiteralTrueArg reports whether any argument is the literal true — the
// shape of a commit decision. Variable decisions (Decide(tx, commit, ...))
// are abort-capable forwarding paths and stay out of scope.
func durLiteralTrueArg(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || id.Name != "true" {
			continue
		}
		if c, ok := pass.Info.Uses[id].(*types.Const); ok && c.Parent() == types.Universe {
			return true
		}
	}
	return false
}

// durProtectedArg reports whether a filename expression mentions a
// protected state file: a string literal or string constant whose value is
// (or ends with) a registered name, anywhere in the expression — catches
// both "REPL_EPOCH" and filepath.Join(dir, replEpochName).
func durProtectedArg(pass *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(x ast.Node) bool {
		var val string
		switch v := x.(type) {
		case *ast.BasicLit:
			val = strings.Trim(v.Value, `"`)
		case *ast.Ident:
			if c, ok := pass.Info.Uses[v].(*types.Const); ok && c.Val() != nil {
				val = strings.Trim(c.Val().String(), `"`)
			}
		default:
			return true
		}
		for name := range durabilityStateFiles {
			if val == name || strings.HasSuffix(val, "/"+name) {
				found = true
			}
		}
		return true
	})
	return found
}
