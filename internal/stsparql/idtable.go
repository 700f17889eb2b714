package stsparql

import "math/bits"

// idTable is the executor's one hash table: flat, pointer-free open
// addressing over non-zero keys. Dictionary ids start at 1 and a join key
// always has a non-zero component, so the zero key marks an empty slot and
// no occupancy array is needed. The slot count is a power of two of at
// least twice the entries, so linear probing always meets an empty slot.
//
// As a hash join's build side (buildJoinTable) each key owns a bucket:
// the candidates carrying it, in ascending candidate order, carved from
// one arena. As the spatial pushdown set (newIDSet) its buckets stay
// empty. A table is built serially and only read afterwards, so morsel
// workers probe it concurrently.
//
// The caller hashes: every lookup takes the key's hash, computed with the
// function the table was built with, so the hash inlines into the
// executor's probe loops instead of costing an indirect call per probe.
type idTable[K comparable] struct {
	slots []slot[K]
	arena []int32
	shift uint // the slot index is the hash's top bits
}

// slot holds a key and, in a join table, its bucket's range of the arena:
// a probe reads both from one cache line.
type slot[K comparable] struct {
	key    K
	off, n int32
}

// hashID and hashKey3 are Fibonacci hashes: the multiply carries every
// input bit into the top bits, which idTable indexes by.
func hashID(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

func hashKey3(k [3]uint64) uint64 {
	return ((k[0]*0x9e3779b97f4a7c15^k[1])*0x9e3779b97f4a7c15 ^ k[2]) * 0x9e3779b97f4a7c15
}

// newIDTable sizes an empty table for up to entries keys.
func newIDTable[K comparable](entries int) *idTable[K] {
	slots := 2
	for slots < 2*entries {
		slots <<= 1
	}
	return &idTable[K]{slots: make([]slot[K], slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

// find returns the slot of k, whose hash is h, and true, or the empty
// slot k would take and false. The zero key is never present.
func (t *idTable[K]) find(k K, h uint64) (int, bool) {
	var zero K
	if k == zero {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return i, true
		case zero:
			return i, false
		}
	}
}

// insert adds a non-zero key if absent and returns its slot.
func (t *idTable[K]) insert(k K, h uint64) int {
	s, ok := t.find(k, h)
	if !ok {
		t.slots[s].key = k
	}
	return s
}

func (t *idTable[K]) has(k K, h uint64) bool {
	_, ok := t.find(k, h)
	return ok
}

// bucket returns the candidates carrying k, ascending; read-only.
func (t *idTable[K]) bucket(k K, h uint64) []int32 {
	s, ok := t.find(k, h)
	if !ok {
		return nil
	}
	b := &t.slots[s]
	return t.arena[b.off : b.off+b.n]
}

// newIDSet is the set of the given non-zero ids, hashed with hashID and
// sized by their count. Almost every probe of the spatial pushdown set
// misses, and a miss ends at the first empty slot, so the set is kept at
// most 1/8 full: a miss then nearly always ends at its home slot, a
// branch the CPU predicts.
func newIDSet(ids []uint64) *idTable[uint64] {
	t := newIDTable[uint64](4 * len(ids))
	for _, id := range ids {
		t.insert(id, hashID(id))
	}
	return t
}

// buildJoinTable buckets candidates by their non-zero join key, hashed
// with hash: one pass inserts each key and counts its bucket, prefix sums
// carve the buckets from one arena, and a second pass fills them in
// candidate order.
func buildJoinTable[K comparable](cands []int32, key func(int32) K, hash func(K) uint64) *idTable[K] {
	t := newIDTable[K](len(cands))
	at := make([]int32, len(cands)) // each candidate's slot
	for i, c := range cands {
		k := key(c)
		s := t.insert(k, hash(k))
		t.slots[s].n++
		at[i] = int32(s)
	}
	off := int32(0)
	for s := range t.slots { // empty slots take an empty range
		b := &t.slots[s]
		b.off, off, b.n = off, off+b.n, 0
	}
	t.arena = make([]int32, len(cands))
	for i, c := range cands {
		b := &t.slots[at[i]]
		t.arena[b.off+b.n] = c
		b.n++
	}
	return t
}
