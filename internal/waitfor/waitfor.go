// Package waitfor holds the wait-for cycle check shared by the repo's three
// schedulers: the GTM (internal/core), the strict-2PL baseline
// (internal/twopl) and the LDBS lock manager (internal/ldbs).
//
// No scheduler stores its wait-for graph. Each reads a transaction's
// out-edges on demand from the wait queues it already keeps, so an edge can
// never go stale and a check costs what it visits, not the size of the
// lock table.
package waitfor

// Closes reports whether waiter, by waiting for blockers, would close a
// cycle: whether waiter is reachable from some blocker. next returns the
// transactions a transaction currently waits for; it is called at most once
// per transaction reached.
func Closes[T comparable](waiter T, blockers []T, next func(T) []T) bool {
	seen := make(map[T]struct{})
	stack := append([]T(nil), blockers...)
	for len(stack) > 0 {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tx == waiter {
			return true
		}
		if _, ok := seen[tx]; ok {
			continue
		}
		seen[tx] = struct{}{}
		stack = append(stack, next(tx)...)
	}
	return false
}
