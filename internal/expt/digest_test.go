package expt_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"slices"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
)

// digest hashes every field of v, exported or not, by reflection: pointers
// are followed, maps walked in key order, and each length and nil written
// before what it covers, so two values hash alike only if DeepEqual would
// call them equal.
func digest(h hash.Hash, v reflect.Value) {
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	switch v.Kind() {
	case reflect.Pointer:
		word(boolWord(v.IsNil()))
		if !v.IsNil() {
			digest(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digest(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digest(h, v.Index(i))
		}
	case reflect.Map:
		word(boolWord(v.IsNil()))
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		word(uint64(len(keys)))
		for _, k := range keys {
			word(uint64(k.Int()))
			digest(h, v.MapIndex(k))
		}
	case reflect.Bool:
		word(boolWord(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		panic(fmt.Sprintf("digest: no encoding for %s", v.Type()))
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestBatteryDigestPinned pins every number the full battery files — all 42
// caches' Stats with their word histograms, Seq, Foot, both run counters,
// both iTLBs, the two memory systems and their L1Is — and the machine's own
// results beside them, as one sha256 per run: TPC-B under base, all and
// fusion, and order entry on four shards with the fast path, the p99
// group-commit tuner and fetch stalls. The digests were recorded before the
// battery's simulators were last rewritten; a simulator change that moves any
// statistic of any cache moves one of them.
func TestBatteryDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	session := func(o expt.Options) *expt.Session {
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tpcbS := session(tinyOptions(tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})))
	o := tinyOptions(tinyOrdere())
	o.Shards = 4
	o.PredictFastPath = true
	o.AutoGroupCommit = machine.AutoGCTargetP99
	o.FetchStallPenaltyInstr = 40
	ordereS := session(o)
	cases := []struct {
		name   string
		s      *expt.Session
		layout string
		want   string
	}{
		{"tpcb", tpcbS, "base", "108d5e012b35f17f2bde4840eb007de62250b602a61cb2d0716324b246bcf45f"},
		{"tpcb", tpcbS, "all", "0d375779f5f9dc29a4028b78eaec3dc5a4b962a765ea1563ad048ac2b4cce82f"},
		{"tpcb", tpcbS, "fusion", "9c0c9ff88e7d506246a5d65796e3984057c21504fdf1b0f2eae32e436f40e96a"},
		{"ordere-4-shards", ordereS, "all", "dd2fd1c2c134384bbc03d0a1890f590a0fa2ccc8958118712eda8ccf296ec1ce"},
	}
	for _, tc := range cases {
		m, err := tc.s.Measure(tc.layout, tc.s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sinks != expt.AllSinks || m.Word == nil || m.Word.WordsUsed.N == 0 || m.ITLB48 <= m.ITLB64 {
			t.Fatalf("%s/%s: not a full-battery measure: sinks %#x, Word %+v, iTLB misses %d at 64, %d at 48",
				tc.name, tc.layout, m.Sinks, m.Word, m.ITLB64, m.ITLB48)
		}
		h := sha256.New()
		digest(h, reflect.ValueOf(m).Elem())
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s/%s: battery digest %s, want %s", tc.name, tc.layout, got, tc.want)
		}
	}
}
