package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockGraph builds the whole-program lock-acquisition graph of the
// internal/... tree and holds it to a documented partial order. PR 5–8 grew
// the system into a multi-lock world — shard.Cluster.mu over the remote
// conns, the gateway's session/lane locks, ldbs's wal → replHub hand-off,
// the GTM monitor itself — and the only deadlock defense so far was code
// review of per-file comments ("Lock order: wal.mu → replHub.mu"). This
// analyzer turns those comments into machine-checked directives:
//
//	//gtmlint:lockorder ldbs.wal.mu -> ldbs.replHub.mu
//
// A lock class is a sync.Mutex/RWMutex field of a named type (or a
// package-level mutex var), written <pkg>.<Type>.<field>. The GTM monitor
// participates through its entry idiom: `defer x.enter(args)()` acquires
// the mutex field of enter's receiver for the rest of the body. Within each
// function the analyzer tracks the held set in statement order (defer
// Unlock keeps a lock held to the end, an inline Unlock releases it), and
// propagates may-acquire effects through static calls — same-package and
// cross-package alike, resolved against every source-loaded package of the
// run. Function literals launched with `go` are analyzed as independent
// roots: a goroutine does not inherit its spawner's locks.
//
// It reports:
//
//  1. any cycle in the class graph — two lock classes acquired in both
//     orders on some pair of paths is a potential deadlock, the
//     whole-program generalization of lockorder's SST-sort rule;
//  2. any acquisition edge not covered by a //gtmlint:lockorder directive —
//     new nesting must be consciously documented where it is introduced
//     (and mirrored in docs/STATIC_ANALYSIS.md's ordering table);
//  3. stale directives documenting an edge the program no longer takes, so
//     the table cannot drift from the code.
//
// Known imprecision: calls through interfaces and stored function values
// are not followed (their effects are unseen), and the held-set tracking is
// linear in source order, not path-sensitive. Both under-approximate;
// a missed edge weakens the check but never blocks a build. The escape
// hatch for a deliberate edge the analyzer misjudges is //lint:ignore
// gtmlint/lockgraph with a reason.
var LockGraph = &Analyzer{
	Name:         "lockgraph",
	Doc:          "whole-program lock-acquisition graph: no cycles, every edge documented by a //gtmlint:lockorder directive",
	Run:          runLockGraph,
	WholeProgram: true,
}

// lockOrderDirective introduces one documented edge of the partial order.
const lockOrderDirectivePrefix = "//gtmlint:lockorder "

// underInternal reports whether an import path is part of the internal
// tree the distributed-tier analyzers police (fixtures mimic it with
// example.com/internal/... paths).
func underInternal(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// lgPkgShort returns the lock-class package prefix: the last path segment.
func lgPkgShort(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// lgEvent is one lock acquisition with the classes already held there.
type lgEvent struct {
	held  []string
	class string
	pos   token.Pos
}

// lgCall is one static call (or synchronous literal invocation) with the
// classes held at the call site.
type lgCall struct {
	held   []string
	callee string  // funcKey of a declared function; "" when pseudo is set
	pseudo *lgNode // inline function literal, invoked synchronously
	pos    token.Pos
}

// lgNode is one function-like body's lock behavior.
type lgNode struct {
	key      string
	events   []lgEvent
	calls    []lgCall
	effects  map[string]bool // may-acquire closure, filled by fixpoint
	goChilds []*lgNode       // go-launched literals: separate roots, no effect propagation
}

// lgEdge is one from→to acquisition edge with a representative position.
type lgEdge struct {
	from, to string
	pos      token.Pos
}

func runLockGraph(pass *Pass) {
	var active []*Package
	for _, p := range pass.All {
		if underInternal(p.PkgPath) {
			active = append(active, p)
		}
	}
	if len(active) == 0 {
		return
	}

	// Pass 1: scan every function body into a node.
	nodes := make(map[string]*lgNode)
	var all []*lgNode
	for _, p := range active {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &lgNode{key: lgFuncKey(obj)}
				roots := lgScanBody(p, n, fd.Body, nil)
				nodes[n.key] = n
				all = append(all, n)
				all = append(all, roots...)
			}
		}
	}

	// Pass 2: may-acquire effects to a fixpoint over static calls.
	for _, n := range all {
		n.effects = make(map[string]bool)
		for _, e := range n.events {
			n.effects[e.class] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range all {
			for _, c := range n.calls {
				target := c.pseudo
				if target == nil {
					target = nodes[c.callee]
				}
				if target == nil {
					continue
				}
				for cls := range target.effects {
					if !n.effects[cls] {
						n.effects[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: edges. Direct acquisitions while held, plus everything a
	// callee may acquire while the caller holds a lock.
	edges := make(map[string]*lgEdge)
	addEdge := func(from, to string, pos token.Pos) {
		k := from + " -> " + to
		if e, ok := edges[k]; !ok || pos < e.pos {
			edges[k] = &lgEdge{from: from, to: to, pos: pos}
		}
	}
	for _, n := range all {
		for _, e := range n.events {
			for _, h := range e.held {
				addEdge(h, e.class, e.pos)
			}
		}
		for _, c := range n.calls {
			if len(c.held) == 0 {
				continue
			}
			target := c.pseudo
			if target == nil {
				target = nodes[c.callee]
			}
			if target == nil {
				continue
			}
			for cls := range target.effects {
				for _, h := range c.held {
					addEdge(h, cls, c.pos)
				}
			}
		}
	}

	documented, documentedPos, badDirs := lgCollectDirectives(active)
	for _, d := range badDirs {
		pass.Reportf(d.pos, "%s", d.msg)
	}

	// Self-edges: same class acquired while an instance of it is held. A
	// documented A -> A edge asserts the instances are provably distinct
	// (and where that argument lives); an undocumented one is a potential
	// self-deadlock.
	var keys []string
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edges[keys[i]].pos < edges[keys[j]].pos })
	for _, k := range keys {
		e := edges[k]
		if e.from == e.to && !documented[k] {
			pass.Reportf(e.pos, "acquires %s while an instance of it is already held: self-deadlock unless the instances are provably distinct; document with //gtmlint:lockorder %s -> %s stating why, or restructure", e.to, e.from, e.to)
		}
	}

	// Cycles: strongly connected components of size > 1.
	inCycle := lgCycleReport(pass, edges)

	// Undocumented edges (cycle members already reported above).
	for _, k := range keys {
		e := edges[k]
		if e.from == e.to || documented[k] || inCycle[k] {
			continue
		}
		pass.Reportf(e.pos, "undocumented lock-order edge %s -> %s: add //gtmlint:lockorder %s -> %s near the acquiring code and to the ordering table in docs/STATIC_ANALYSIS.md, or restructure to avoid holding %s here", e.from, e.to, e.from, e.to, e.from)
	}

	// Stale directives: documented edges the program no longer takes.
	var staleKeys []string
	for k := range documentedPos {
		if _, live := edges[k]; !live {
			staleKeys = append(staleKeys, k)
		}
	}
	sort.Strings(staleKeys)
	for _, k := range staleKeys {
		pass.Reportf(documentedPos[k], "stale lockorder directive: the program no longer acquires %s; delete the directive (and its docs/STATIC_ANALYSIS.md row)", k)
	}
}

type lgBadDirective struct {
	pos token.Pos
	msg string
}

// lgCollectDirectives gathers //gtmlint:lockorder edges from every active
// package's comments.
func lgCollectDirectives(pkgs []*Package) (map[string]bool, map[string]token.Pos, []lgBadDirective) {
	documented := make(map[string]bool)
	documentedPos := make(map[string]token.Pos)
	var bad []lgBadDirective
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, lockOrderDirectivePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, lockOrderDirectivePrefix))
					from, to, ok := strings.Cut(rest, "->")
					from, to = strings.TrimSpace(from), strings.TrimSpace(to)
					if !ok || from == "" || to == "" || strings.ContainsAny(to, " \t") {
						bad = append(bad, lgBadDirective{pos: c.Pos(),
							msg: "malformed lockorder directive: //gtmlint:lockorder <pkg.Type.field> -> <pkg.Type.field>"})
						continue
					}
					k := from + " -> " + to
					if _, dup := documentedPos[k]; !dup {
						documented[k] = true
						documentedPos[k] = c.Pos()
					}
				}
			}
		}
	}
	return documented, documentedPos, bad
}

// lgCycleReport finds strongly connected components with more than one
// class and reports each once, at its earliest edge. It returns the edge
// keys inside reported cycles so they are not re-reported as undocumented.
func lgCycleReport(pass *Pass, edges map[string]*lgEdge) map[string]bool {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for _, out := range adj {
		sort.Strings(out)
	}

	// Tarjan's SCC.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	var sorted []string
	for v := range nodes {
		sorted = append(sorted, v)
	}
	sort.Strings(sorted)
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	inCycle := make(map[string]bool)
	for _, scc := range sccs {
		member := make(map[string]bool, len(scc))
		for _, v := range scc {
			member[v] = true
		}
		var cycEdges []*lgEdge
		for k, e := range edges {
			if member[e.from] && member[e.to] && e.from != e.to {
				inCycle[k] = true
				cycEdges = append(cycEdges, e)
			}
		}
		sort.Slice(cycEdges, func(i, j int) bool { return cycEdges[i].pos < cycEdges[j].pos })
		var parts []string
		for _, e := range cycEdges {
			parts = append(parts, e.from+" -> "+e.to)
		}
		pass.Reportf(cycEdges[0].pos, "lock-order cycle (potential deadlock): %s; some path acquires these classes in the opposite order — restructure so one documented order covers every path", strings.Join(parts, ", "))
	}
	return inCycle
}

// lgFuncKey names a declared function across packages.
func lgFuncKey(f *types.Func) string {
	recv := ""
	if r := recvNamed(f); r != nil {
		recv = r.Obj().Name()
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	return pkg + "|" + recv + "|" + f.Name()
}

// lgScanBody walks one function-like body in source order, tracking the
// held set. held is the entry set (nil for roots). It returns go-launched
// literal nodes so the caller can register them as independent roots.
func lgScanBody(p *Package, n *lgNode, body *ast.BlockStmt, held []string) []*lgNode {
	var roots []*lgNode
	litSeq := 0

	// Literals under go/defer calls run detached from this statement
	// position; find them first so the in-order walk can tell them apart.
	// handled marks calls the go/defer cases classify themselves, so the
	// plain-call case does not record them a second time when Inspect
	// descends into the statement.
	goLits := make(map[*ast.FuncLit]bool)
	deferLits := make(map[*ast.FuncLit]bool)
	invokedLits := make(map[*ast.FuncLit]bool)    // func(){...}() — runs here, under the current held set
	argLitCallee := make(map[*ast.FuncLit]string) // f(func(){...}) — callee name decides when it runs
	handled := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.GoStmt:
			ast.Inspect(v.Call, func(y ast.Node) bool {
				if lit, ok := y.(*ast.FuncLit); ok {
					goLits[lit] = true
					return false
				}
				return true
			})
		case *ast.DeferStmt:
			ast.Inspect(v.Call, func(y ast.Node) bool {
				if lit, ok := y.(*ast.FuncLit); ok {
					deferLits[lit] = true
					return false
				}
				return true
			})
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
				invokedLits[lit] = true
			}
			for _, arg := range v.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					name := ""
					if f := calleeFunc(p.Info, v); f != nil {
						name = f.Name()
					} else if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
						name = sel.Sel.Name
					}
					if _, dup := argLitCallee[lit]; !dup {
						argLitCallee[lit] = name
					}
				}
			}
		}
		return true
	})

	heldCopy := func() []string {
		out := make([]string, len(held))
		copy(out, held)
		return out
	}
	push := func(class string) {
		held = append(held, class)
	}
	pop := func(class string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == class {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	child := func(lit *ast.FuncLit) *lgNode {
		litSeq++
		c := &lgNode{key: fmt.Sprintf("%s$lit%d", n.key, litSeq)}
		sub := lgScanBody(p, c, lit.Body, nil)
		roots = append(roots, c)
		roots = append(roots, sub...)
		return c
	}

	ast.Inspect(body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			c := child(v)
			callee, isArg := argLitCallee[v]
			switch {
			case goLits[v]:
				n.goChilds = append(n.goChilds, c) // concurrent: no inherited locks, no effects
			case deferLits[v]:
				n.calls = append(n.calls, lgCall{held: nil, pseudo: c, pos: v.Pos()}) // runs at exit
			case invokedLits[v]:
				n.calls = append(n.calls, lgCall{held: heldCopy(), pseudo: c, pos: v.Pos()}) // func(){...}()
			case isArg && callee == "queue":
				// The monitor's after-exit continuation: mon.queue(fn) runs
				// fn only once the critical section has unlocked, so like a
				// go-launched literal it inherits no held locks and feeds no
				// effects back into this function.
				n.goChilds = append(n.goChilds, c)
			case isArg:
				// Callbacks handed to an ordinary call (sort.Slice's less,
				// withLock-style helpers) run within the call, under
				// whatever is held here.
				n.calls = append(n.calls, lgCall{held: heldCopy(), pseudo: c, pos: v.Pos()})
			default:
				// Stored for later (assigned, returned, kept in a struct):
				// the invocation site is unknown, so the literal is analyzed
				// as its own root and contributes no effects here — the
				// documented stored-function-value blind spot.
			}
			return false
		case *ast.GoStmt:
			// The spawned call runs concurrently: record nothing for it.
			// Literals inside were pre-marked; named callees are analyzed
			// as their own declarations. Arguments still evaluate
			// synchronously, so descend.
			handled[v.Call] = true
			return true
		case *ast.DeferStmt:
			handled[v.Call] = true
			// `defer x.enter(args)()` — the monitor-entry idiom: the inner
			// call runs NOW and acquires the receiver's mutex for the rest
			// of the body; the deferred closure releases it at exit.
			if inner, ok := v.Call.Fun.(*ast.CallExpr); ok {
				handled[inner] = true
				if callee := calleeFunc(p.Info, inner); callee != nil {
					n.calls = append(n.calls, lgCall{held: heldCopy(), callee: lgFuncKey(callee), pos: inner.Pos()})
					if cls := lgMonitorClass(callee); cls != "" {
						n.events = append(n.events, lgEvent{held: heldCopy(), class: cls, pos: inner.Pos()})
						push(cls)
					}
				}
				return true
			}
			// `defer x.mu.Unlock()` — held to end of body: ignore.
			if _, _, kind := lgLockCall(p, v.Call); kind != lgNotLock {
				return true
			}
			// Any other deferred call runs at exit; locks taken here are
			// normally released by then.
			if callee := calleeFunc(p.Info, v.Call); callee != nil {
				n.calls = append(n.calls, lgCall{held: nil, callee: lgFuncKey(callee), pos: v.Pos()})
			}
			return true
		case *ast.CallExpr:
			if handled[v] {
				return true
			}
			class, pos, kind := lgLockCall(p, v)
			switch kind {
			case lgAcquire:
				if class != "" {
					n.events = append(n.events, lgEvent{held: heldCopy(), class: class, pos: pos})
					push(class)
				}
				return false
			case lgRelease:
				if class != "" {
					pop(class)
				}
				return false
			}
			if callee := calleeFunc(p.Info, v); callee != nil {
				n.calls = append(n.calls, lgCall{held: heldCopy(), callee: lgFuncKey(callee), pos: v.Pos()})
			}
			return true
		}
		return true
	})
	return roots
}

type lgLockKind int

const (
	lgNotLock lgLockKind = iota
	lgAcquire
	lgRelease
)

// lgLockCall classifies a call as a mutex acquire/release and names its
// lock class. Unresolvable receivers (local mutexes, mutexes of inactive
// packages) classify as the right kind with an empty class.
func lgLockCall(p *Package, call *ast.CallExpr) (class string, pos token.Pos, kind lgLockKind) {
	callee := calleeFunc(p.Info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", 0, lgNotLock
	}
	recv := recvNamed(callee)
	if recv == nil {
		return "", 0, lgNotLock
	}
	switch recv.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", 0, lgNotLock
	}
	switch callee.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = lgAcquire
	case "Unlock", "RUnlock":
		kind = lgRelease
	default:
		return "", 0, lgNotLock
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", call.Pos(), kind
	}
	return lgClassOf(p, sel.X), call.Pos(), kind
}

// lgClassOf names the lock class of a mutex-valued expression:
// <pkg>.<Type>.<field> for a field of a named type, <pkg>.<var> for a
// package-level var. Local mutexes and mutexes of packages outside the
// internal tree have no class.
func lgClassOf(p *Package, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		tv, ok := p.Info.Types[e.X]
		if !ok {
			return ""
		}
		named := namedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil || !underInternal(named.Obj().Pkg().Path()) {
			return ""
		}
		return lgPkgShort(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			return ""
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || !underInternal(v.Pkg().Path()) {
			return ""
		}
		// Package-level vars only: their Parent is the package scope.
		if v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return lgPkgShort(v.Pkg().Path()) + "." + v.Name()
	}
	return ""
}

// lgMonitorClass resolves the mutex a monitor-entry function acquires: a
// method named enter whose receiver type carries exactly one mutex field.
func lgMonitorClass(callee *types.Func) string {
	if callee.Name() != "enter" {
		return ""
	}
	recv := recvNamed(callee)
	if recv == nil || recv.Obj().Pkg() == nil || !underInternal(recv.Obj().Pkg().Path()) {
		return ""
	}
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		n := namedOf(f.Type())
		if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
			continue
		}
		switch n.Obj().Name() {
		case "Mutex", "RWMutex":
			return lgPkgShort(recv.Obj().Pkg().Path()) + "." + recv.Obj().Name() + "." + f.Name()
		}
	}
	return ""
}
