package rules

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// hasPairNaive is the pre-index HasPair: two directional map probes.
func hasPairNaive(rb *RuleBase, x, y int) bool {
	return rb.Has(x, y) || rb.Has(y, x)
}

// partnersNaive recomputes t's partner set from the rule map.
func partnersNaive(rb *RuleBase, t int) []int {
	seen := make(map[int]bool)
	for k := range rb.rules {
		if k.X == t {
			seen[k.Y] = true
		}
		if k.Y == t {
			seen[k.X] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// checkAdjacency verifies the partner lists against the rule map over the
// given template universe, which must hold every template of the base.
func checkAdjacency(t *testing.T, rb *RuleBase, ids []int) {
	t.Helper()
	listed := 0
	for _, x := range ids {
		for _, y := range ids {
			if got, want := rb.HasPair(x, y), hasPairNaive(rb, x, y); got != want {
				t.Fatalf("HasPair(%d, %d) = %v, naive = %v", x, y, got, want)
			}
		}
		got := rb.Partners(x)
		want := partnersNaive(rb, x)
		if !slices.Equal(got, want) {
			t.Fatalf("Partners(%d) = %v, want %v", x, got, want)
		}
		if len(want) > 0 {
			listed++
		}
	}
	if len(rb.partners) != listed {
		t.Fatalf("%d partner lists, want %d: an emptied list was kept", len(rb.partners), listed)
	}
}

// TestAdjacencyTracksMutations drives a random Add/Remove sequence and
// checks the partner lists against the rule map after every step, over
// small template IDs and over IDs on both sides of 8 192 (the ceiling the
// retired dense pair bitset fell back at).
func TestAdjacencyTracksMutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"small IDs", []int{0, 1, 2, 3, 5, 8, 13}},
		{"large IDs", []int{1, 2, 3, 1<<13 - 1, 1 << 13, 1<<13 + 1, 1 << 15, 1<<15 + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			rb := NewRuleBase()
			ids := tc.ids
			for step := 0; step < 400; step++ {
				x, y := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				switch rng.Intn(3) {
				case 0:
					rb.Add(Rule{X: x, Y: y, Support: 0.1, Conf: 0.9})
				case 1:
					rb.Remove(x, y)
				case 2:
					// A reverse-direction add then a one-direction remove
					// is the case a naive unlink gets wrong.
					rb.Add(Rule{X: y, Y: x, Support: 0.1, Conf: 0.9})
					rb.Remove(x, y)
				}
				checkAdjacency(t, rb, ids)
			}
		})
	}
}

// TestAdjacencySurvivesUpdate mines a small result and applies the
// conservative weekly update, then checks the rebuilt index.
func TestAdjacencySurvivesUpdate(t *testing.T) {
	rb := NewRuleBase()
	rb.Add(Rule{X: 1, Y: 2, Support: 0.2, Conf: 0.9})
	rb.Add(Rule{X: 3, Y: 4, Support: 0.2, Conf: 0.9})
	res := &Result{
		Transactions: 100,
		ItemTx:       map[int]int{1: 50, 2: 50, 3: 2, 4: 50, 5: 40, 6: 40},
		PairTx:       map[PairKey]int{{1, 2}: 45, {5, 6}: 38},
		cfg:          Config{SPmin: 0.0005, ConfMin: 0.8, MinEvidence: 5},
	}
	res.Rules = res.rulesFromStats()
	rb.Update(res)
	checkAdjacency(t, rb, []int{1, 2, 3, 4, 5, 6})
	if !rb.HasPair(5, 6) {
		t.Fatal("update did not add the qualifying pair (5, 6)")
	}
	if !rb.HasPair(3, 4) {
		t.Fatal("update deleted (3, 4) though its antecedent lacked evidence")
	}
}

// FuzzRuleBase drives Add, Remove and Update from a byte string, three
// bytes a step, over template IDs on both sides of 8 192, and holds
// Partners and HasPair to a recomputation from the rule map after every
// step. An Update step measures one pair: both templates in 50 of 100
// transactions, the pair in 0–50 of them, so it adds the pair's rules
// (confidence ≥ 0.8), deletes the rules out of either template it
// contradicts, or both.
func FuzzRuleBase(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1})
	f.Add([]byte{0, 3, 4, 3, 4, 3, 1, 3, 4, 0, 5, 5, 2, 2, 3})
	f.Add([]byte{123, 1, 6, 0, 6, 1, 0, 7, 6, 2, 6, 7, 5, 6, 1, 1, 6, 7})
	ids := []int{0, 1, 2, 7, 1<<13 - 1, 1 << 13, 1<<13 + 1, 1 << 20}
	f.Fuzz(func(t *testing.T, ops []byte) {
		rb := NewRuleBase()
		for ; len(ops) >= 3; ops = ops[3:] {
			x, y := ids[int(ops[1])%len(ids)], ids[int(ops[2])%len(ids)]
			switch ops[0] % 3 {
			case 0:
				rb.Add(Rule{X: x, Y: y, Support: 0.1, Conf: 0.9})
			case 1:
				rb.Remove(x, y)
			case 2:
				pk := PairKey{min(x, y), max(x, y)}
				res := &Result{
					Transactions: 100,
					ItemTx:       map[int]int{x: 50, y: 50},
					PairTx:       map[PairKey]int{pk: int(ops[0]/3) % 51},
					cfg:          Config{SPmin: 0.0005, ConfMin: 0.8, MinEvidence: 5},
				}
				res.Rules = res.rulesFromStats()
				rb.Update(res)
			}
			checkAdjacency(t, rb, ids)
		}
	})
}

func BenchmarkHasPair(b *testing.B) {
	rb := NewRuleBase()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rb.Add(Rule{X: rng.Intn(64), Y: rng.Intn(64), Support: 0.1, Conf: 0.9})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.HasPair(i&63, (i>>6)&63)
	}
}
