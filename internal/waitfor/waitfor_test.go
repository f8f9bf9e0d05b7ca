package waitfor

import "testing"

func TestCloses(t *testing.T) {
	cases := []struct {
		name     string
		waiter   int
		blockers []int
		edges    map[int][]int
		want     bool
	}{
		{name: "no blockers", waiter: 1, edges: map[int][]int{2: {1}}},
		{name: "direct cycle", waiter: 1, blockers: []int{2}, edges: map[int][]int{2: {1}}, want: true},
		{name: "blocker is the waiter", waiter: 1, blockers: []int{1}, want: true},
		{
			name: "long chain", waiter: 1, blockers: []int{2},
			edges: map[int][]int{2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}, 7: {1}},
			want:  true,
		},
		{
			name: "long chain open at the end", waiter: 1, blockers: []int{2},
			edges: map[int][]int{2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}},
		},
		{
			name: "diamond", waiter: 1, blockers: []int{2, 3},
			edges: map[int][]int{2: {4}, 3: {4}, 4: {5}},
		},
		{
			name: "diamond closing through the shared node", waiter: 1, blockers: []int{2, 3},
			edges: map[int][]int{2: {4}, 3: {4}, 4: {1}},
			want:  true,
		},
		{
			name: "acyclic graph with a cycle elsewhere", waiter: 1, blockers: []int{2},
			edges: map[int][]int{2: {3, 4}, 3: {5}, 4: {5}, 6: {7}, 7: {6}},
		},
		{
			name: "cycle not through the waiter", waiter: 1, blockers: []int{2},
			edges: map[int][]int{2: {3}, 3: {2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := make(map[int]int)
			next := func(tx int) []int {
				calls[tx]++
				return tc.edges[tx]
			}
			if got := Closes(tc.waiter, tc.blockers, next); got != tc.want {
				t.Fatalf("Closes = %v, want %v", got, tc.want)
			}
			for tx, n := range calls {
				if n > 1 {
					t.Errorf("next(%d) called %d times, want at most once", tx, n)
				}
			}
			if calls[tc.waiter] != 0 {
				t.Errorf("next called on the waiter itself")
			}
		})
	}
}

// The walk visits only what the blockers reach: a graph of unrelated
// transactions costs nothing.
func TestClosesVisitsOnlyReachable(t *testing.T) {
	visited := 0
	next := func(tx int) []int {
		visited++
		if tx < 3 {
			return []int{tx + 1}
		}
		return nil
	}
	if Closes(0, []int{1}, next) {
		t.Fatal("no cycle expected")
	}
	if visited != 3 {
		t.Fatalf("visited %d transactions, want 3", visited)
	}
}
