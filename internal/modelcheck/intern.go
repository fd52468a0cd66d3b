package modelcheck

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// The intern store: the explorer's key → id tables. Every successor key is
// hashed once, by hashKey; the low bits of that hash pick the owning shard
// and its high 32 bits are the tag the table probes on, so neither the shard
// choice nor any table probe hashes the key again. Tables and arenas hold no
// Go pointers in their per-key arrays, so the garbage collector never scans
// them.

// hashKey is the store's seedless 64-bit key hash: the xxHash64 rounds for
// inputs shorter than one stripe, applied word by word to the whole key,
// then the xxHash64 avalanche. Being seedless, it gives the same shard layout
// in every process and run (unlike Go's randomized map hash).
func hashKey(b []byte) uint64 {
	const (
		prime1 = 0x9E3779B185EBCA87
		prime2 = 0xC2B2AE3D27D4EB4F
		prime3 = 0x165667B19E3779F9
		prime4 = 0x85EBCA77C2B2AE63
		prime5 = 0x27D4EB2F165667C5
	)
	h := prime5 + uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		k := bits.RotateLeft64(binary.LittleEndian.Uint64(b)*prime2, 31) * prime1
		h = bits.RotateLeft64(h^k, 27)*prime1 + prime4
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b))*prime1, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*prime5, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// internTable interns byte keys, numbering them 0, 1, 2, ... in first-intern
// order. It is an open-addressing table with linear probing over a flat
// []uint64: each occupied slot packs tag<<32 | value+1 (0 marks an empty
// slot), and a probe compares key bytes only on a tag match. A key's home
// slot comes from its tag alone, so growth re-inserts the slots without
// touching a key. The key bytes live in a chunked arena addressed by the
// per-value refs.
//
// Lookups (find) never write, so any number of goroutines may probe a table
// that nobody is interning into.
type internTable struct {
	// slots is the probe array: a power of two long, at most three quarters
	// full.
	slots []uint64
	// refs[v] locates value v's key in arena.
	refs  []uint64
	arena keyArena
}

// minTableSlots is the slot count of a table's first allocation.
const minTableSlots = 16

// key returns the bytes of value v's key. They alias the arena.
func (t *internTable) key(v int32) []byte { return t.arena.bytes(t.refs[v]) }

// find returns the value of key, whose hashKey is h, and whether it was
// interned.
func (t *internTable) find(h uint64, key []byte) (int32, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	tag := h >> 32
	mask := uint64(len(t.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, false
		}
		if s>>32 == tag {
			if v := int32(uint32(s) - 1); bytes.Equal(t.key(v), key) {
				return v, true
			}
		}
	}
}

// intern returns the value of key, whose hashKey is h, interning it under
// the next value when it is new; added reports which.
func (t *internTable) intern(h uint64, key []byte) (v int32, added bool) {
	if 4*(len(t.refs)+1) > 3*len(t.slots) {
		t.grow()
	}
	tag := h >> 32
	mask := uint64(len(t.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			v = int32(len(t.refs))
			t.refs = push(t.refs, t.arena.add(key))
			t.slots[i] = tag<<32 | uint64(v+1)
			return v, true
		}
		if s>>32 == tag {
			if v := int32(uint32(s) - 1); bytes.Equal(t.key(v), key) {
				return v, false
			}
		}
	}
}

// grow doubles the slot array, re-inserting every slot at the home its tag
// names.
func (t *internTable) grow() {
	slots := make([]uint64, max(2*len(t.slots), minTableSlots))
	mask := uint64(len(slots) - 1)
	for _, s := range t.slots {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	t.slots = slots
}

// reset empties the table of its n values for reuse, keeping its
// allocations. hash(v) must be the hash value v was interned under. Each
// entry's slot is found from its home, so the cost is proportional to the
// entries, not to the slot array a larger earlier use left behind.
func (t *internTable) reset(n int, hash func(v int) uint64) {
	mask := uint64(len(t.slots) - 1)
	for v := range n {
		i := hash(v) >> 32 & mask
		for uint32(t.slots[i]) != uint32(v+1) {
			i = (i + 1) & mask
		}
		t.slots[i] = 0
	}
	t.refs = t.refs[:0]
	t.arena.reset()
}

// keyArena stores key bytes in chunks that are never reallocated: a key's
// bytes stay where they were written, so views of them stay valid. Chunks
// double from minChunk up to maxChunk; a longer key gets a chunk of its own.
//
// A ref packs chunk<<44 | offset<<24 | length. A key of refLenMask bytes or
// more stores refLenMask as its length and spans the rest of its own chunk.
type keyArena struct {
	chunks [][]byte
}

const (
	refLenBits = 24
	refLenMask = 1<<refLenBits - 1
	refOffBits = 20
	refOffMask = 1<<refOffBits - 1

	minChunk = 1 << 8
	// maxChunk keeps every offset inside the ref's offset field: a key
	// starts strictly before its chunk's capacity, and only a key longer than
	// maxChunk gets a larger chunk, at offset 0.
	maxChunk = 1 << refOffBits
)

// add copies key into the arena and returns its ref.
func (a *keyArena) add(key []byte) uint64 {
	n := len(a.chunks)
	if n == 0 || cap(a.chunks[n-1])-len(a.chunks[n-1]) < max(len(key), 1) {
		size := minChunk
		if n > 0 {
			size = min(2*cap(a.chunks[n-1]), maxChunk)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, len(key))))
		n++
	}
	c := &a.chunks[n-1]
	off := len(*c)
	*c = append(*c, key...)
	return uint64(n-1)<<(refOffBits+refLenBits) | uint64(off)<<refLenBits | uint64(min(len(key), refLenMask))
}

// bytes returns the key stored under ref.
func (a *keyArena) bytes(ref uint64) []byte {
	c := a.chunks[ref>>(refOffBits+refLenBits)]
	off := ref >> refLenBits & refOffMask
	if n := ref & refLenMask; n < refLenMask {
		return c[off : off+n]
	}
	return c[off:]
}

// reset empties the arena for reuse. It keeps the newest (largest) chunk, so
// a reused arena stops allocating once one chunk holds a whole use — unless
// that chunk was sized for one over-long key, whose offsets the ref could not
// address.
func (a *keyArena) reset() {
	var last []byte
	if n := len(a.chunks); n > 0 && cap(a.chunks[n-1]) <= maxChunk {
		last = a.chunks[n-1][:0]
	}
	clear(a.chunks)
	a.chunks = a.chunks[:0]
	if last != nil {
		a.chunks = append(a.chunks, last)
	}
}

// push appends v to s, doubling the capacity when s is full.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = reserve(s, 1)
	}
	return append(s, v)
}

// grown extends s by n zeroed elements, doubling the capacity when it runs
// out.
func grown[T any](s []T, n int) []T {
	s = reserve(s, n)
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// reserve returns s with room for n more elements. When it must reallocate
// it at least doubles the capacity: append grows large slices by about
// 1.25x, so an array built by append allocates about five times its final
// size in total, against twice when doubling. Asking append for more than
// twice the old capacity makes it allocate exactly that (rounded up to a
// size class), and unlike make plus copy it does not zero the elements it
// copies over.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(2*cap(s)+1, len(s)+n, 8)-len(s))
}
