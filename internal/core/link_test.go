package core

import "testing"

// FuzzLinkChains checks the greedy linker's output on arbitrary candidate
// lists (ties, duplicates and self-links included): every node lies on
// exactly one acyclic chain, every join is a candidate, and the result is
// maximal — no unused candidate could still join a tail to a head of
// another chain.
func FuzzLinkChains(f *testing.F) {
	f.Add(uint8(5), []byte{3, 0, 1, 0, 1, 3, 1, 2, 1, 2, 3, 2, 0, 2, 0, 1, 4, 4, 4, 4})
	f.Add(uint8(63), []byte{})
	f.Add(uint8(3), []byte{1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte) {
		n := 1 + int(n8)%64
		var links []link
		for ; len(data) >= 5; data = data[5:] {
			links = append(links, link{
				w: uint64(data[0] % 4), a: int32(data[1] % 8), b: int32(data[2] % 8),
				from: int32(int(data[3]) % n), to: int32(int(data[4]) % n),
			})
		}
		cands := make(map[[2]int32]bool, len(links))
		for _, l := range links {
			cands[[2]int32{l.from, l.to}] = true
		}
		next, prev := linkChains(n, append([]link(nil), links...))

		chain := make([]int, n) // chain number of each node, 0: not yet seen
		chains := 0
		for h := range n {
			if prev[h] != -1 {
				continue
			}
			chains++
			for cur := int32(h); cur != -1; cur = next[cur] {
				if chain[cur] != 0 {
					t.Fatalf("node %d reached twice", cur)
				}
				chain[cur] = chains
				if nx := next[cur]; nx != -1 {
					if prev[nx] != cur {
						t.Fatalf("next[%d] = %d but prev[%d] = %d", cur, nx, nx, prev[nx])
					}
					if !cands[[2]int32{cur, nx}] {
						t.Fatalf("join %d -> %d is not a candidate", cur, nx)
					}
				}
			}
		}
		for i, c := range chain {
			if c == 0 {
				t.Fatalf("node %d lies on no chain from a head (a cycle)", i)
			}
		}
		for _, l := range links {
			if next[l.from] == -1 && prev[l.to] == -1 && chain[l.from] != chain[l.to] {
				t.Fatalf("candidate %d -> %d joins a tail to another chain's head but was not taken", l.from, l.to)
			}
		}
	})
}
