package modelcheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// checkInternTable interns keys into a fresh internTable and a
// map[string]int32 oracle under hash(key), then checks that both agree on
// every key, present or absent. It then resets the table (as the explorer
// does between levels), checks that no slot survives and that the refilled
// table agrees with the oracle again.
func checkInternTable(t *testing.T, keys [][]byte, absent [][]byte, hash func([]byte) uint64) {
	t.Helper()
	var tab internTable
	for round := 0; round < 2; round++ {
		oracle := map[string]int32{}
		var hashes []uint64
		for _, k := range keys {
			want, seen := oracle[string(k)]
			if !seen {
				want = int32(len(oracle))
				oracle[string(k)] = want
				hashes = append(hashes, hash(k))
			}
			got, added := tab.intern(hash(k), k)
			if got != want || added == seen {
				t.Fatalf("round %d: intern(%q) = %d, added %v; want %d, added %v", round, k, got, added, want, !seen)
			}
		}
		if 4*len(tab.refs) > 3*len(tab.slots) {
			t.Fatalf("round %d: %d entries in %d slots: the table is over three quarters full", round, len(tab.refs), len(tab.slots))
		}
		for k, want := range oracle {
			if got, ok := tab.find(hash([]byte(k)), []byte(k)); !ok || got != want {
				t.Fatalf("round %d: find(%q) = %d, %v; want %d, true", round, k, got, ok, want)
			}
			if got := tab.key(want); !bytes.Equal(got, []byte(k)) {
				t.Fatalf("round %d: key(%d) = %q, want %q", round, want, got, k)
			}
		}
		for _, k := range absent {
			if _, inOracle := oracle[string(k)]; inOracle {
				continue
			}
			// A miss must stop at the first empty slot of its probe run.
			if got, ok := tab.find(hash(k), k); ok {
				t.Fatalf("round %d: find(%q) = %d on a key never interned", round, k, got)
			}
		}
		tab.reset(len(hashes), func(v int) uint64 { return hashes[v] })
		for i, s := range tab.slots {
			if s != 0 {
				t.Fatalf("round %d: slot %d = %#x survives reset", round, i, s)
			}
		}
		if len(tab.refs) != 0 {
			t.Fatalf("round %d: %d refs survive reset", round, len(tab.refs))
		}
	}
}

// TestInternTableMatchesMap pins the flat intern table against a
// map[string]int32 oracle: growth through many doublings, keys whose hashes
// share their high 32 bits (the tag) so that every probe compares bytes,
// keys that share the whole hash, misses that must stop at an empty slot,
// and the per-level reset.
func TestInternTableMatchesMap(t *testing.T) {
	t.Parallel()
	key := func(i int) []byte { return fmt.Appendf(nil, "state-%d", i) }
	var keys, absent [][]byte
	for i := 0; i < 5000; i++ {
		keys = append(keys, key(i%3000)) // repeats exercise the found path
	}
	for i := 3000; i < 3100; i++ {
		absent = append(absent, key(i))
	}
	t.Run("hashKey", func(t *testing.T) {
		checkInternTable(t, keys, absent, hashKey)
	})
	t.Run("equal tags", func(t *testing.T) {
		// Same high 32 bits for every key: each probe walks one long run of
		// matching tags and must tell the keys apart by their bytes.
		checkInternTable(t, keys[:600], absent, func(b []byte) uint64 {
			return 0xDEADBEEF<<32 | hashKey(b)&0xFFFFFFFF
		})
	})
	t.Run("equal hashes", func(t *testing.T) {
		checkInternTable(t, keys[:300], absent, func([]byte) uint64 { return 42 })
	})
	t.Run("empty and long keys", func(t *testing.T) {
		long := bytes.Repeat([]byte("k"), 3*maxChunk)
		checkInternTable(t, [][]byte{{}, long, []byte("a"), long[1:], {}, []byte("a")}, [][]byte{long[2:], []byte("b")}, hashKey)
	})
}

// TestKeyArenaRefs pins the arena's ref encoding at its edges: keys that
// straddle a chunk boundary move to a fresh chunk, a key longer than the
// ref's length field spans its own chunk, and every ref reads back its bytes.
func TestKeyArenaRefs(t *testing.T) {
	t.Parallel()
	var a keyArena
	keys := [][]byte{
		bytes.Repeat([]byte{1}, minChunk-1),
		bytes.Repeat([]byte{2}, 2), // does not fit behind the first key
		{},
		bytes.Repeat([]byte{3}, refLenMask+5),
		[]byte("after"),
	}
	refs := make([]uint64, len(keys))
	for i, k := range keys {
		refs[i] = a.add(k)
	}
	for i, k := range keys {
		if got := a.bytes(refs[i]); !bytes.Equal(got, k) {
			t.Errorf("key %d: read back %d bytes, want %d", i, len(got), len(k))
		}
	}
}

// FuzzInternTable checks the intern table against a map oracle on arbitrary
// key sets. The first input byte picks the hash: the real one, one that
// keeps only 4 tag bits (heavy tag collisions) or a constant.
func FuzzInternTable(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 1, 'a', 3, 'a', 'b', 'c'})
	f.Add([]byte{1, 2, 'x', 'y', 0, 2, 'x', 'z', 2, 'y', 'x'})
	f.Add([]byte{2, 1, 'q', 1, 'r', 1, 'q', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hash := hashKey
		switch data[0] % 3 {
		case 1:
			hash = func(b []byte) uint64 { return hashKey(b) & (0xF<<32 | 0xFFFFFFFF) }
		case 2:
			hash = func([]byte) uint64 { return 7 << 32 }
		}
		var keys [][]byte
		for rest := data[1:]; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			keys = append(keys, rest[1:1+n])
			rest = rest[1+n:]
		}
		var absent [][]byte
		for i := 0; i < 8; i++ {
			absent = append(absent, binary.LittleEndian.AppendUint32(nil, uint32(i)))
		}
		checkInternTable(t, keys, absent, hash)
	})
}

// TestHashKeyMatchesXXH64 pins hashKey to published XXH64 (seed 0) values:
// on keys shorter than one 32-byte stripe the two are the same function, and
// a fixed function of the key alone is what keeps the shard layout the same
// in every process.
func TestHashKeyMatchesXXH64(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		key  string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
	} {
		if got := hashKey([]byte(tc.key)); got != tc.want {
			t.Errorf("hashKey(%q) = %#x, want %#x", tc.key, got, tc.want)
		}
	}
}
