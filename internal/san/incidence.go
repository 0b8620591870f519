package san

import "math/bits"

// Incidence index for the runner's dirty-place tracking. Built once per
// Runner from the model's documented structure (the same Link arcs the
// san.Structure snapshot and package sanalyze reason over), it answers: when
// place p changes, which activities' enabling conditions and which rate
// rewards' values could have changed?
//
// Soundness contract: an activity's documented LinkInput arcs must cover
// every place its enabling predicates read, and a rate reward's Refs must
// cover every place (or completion-counting activity) its function reads.
// Activities with predicates but no documented input links — common in
// hand-rolled test models — and rewards with no Refs fall back to the
// wildcard set and are reconsidered unconditionally, reproducing the
// pre-index full-scan behavior for exactly those components.

// bitset is a fixed-capacity bit vector with an ordered scan, used for the
// runner's candidate sets (indexes are activity positions in firing order,
// so scanning ascending bits reproduces the full-scan visit order).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// or folds every bit of o into b; the two must have equal capacity.
func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// zero clears every bit, retaining capacity.
func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// setAll sets the first n bits.
func (b bitset) setAll(n int) {
	for i := 0; i < n; i++ {
		b.set(i)
	}
}

// any reports whether any bit is set.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// next returns the lowest set bit at or after from, or -1 when none is set.
func (b bitset) next(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	// Mask off bits below from in the first word.
	cur := b[w] &^ ((1 << (uint(from) & 63)) - 1)
	for {
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		if w >= len(b) {
			return -1
		}
		cur = b[w]
	}
}

// incidence holds, per place, the indexes of dependent components: timed
// activities (by position in the runner's timed list), instantaneous
// activities (by position in the runner's instants list), and rate rewards
// (by model rate index).
type incidence struct {
	timed [][]int32
	inst  [][]int32
	rates [][]int32
}

func newIncidence(places int) incidence {
	return incidence{
		timed: make([][]int32, places),
		inst:  make([][]int32, places),
		rates: make([][]int32, places),
	}
}
