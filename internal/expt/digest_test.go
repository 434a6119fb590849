package expt_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the pins' text forms under testdata/pins/ from this run")

// digest hashes every field of v, exported or not, by reflection: pointers
// are followed, maps walked in key order, and each length and nil written
// before what it covers, so two values hash alike only if DeepEqual would
// call them equal. A non-nil text also gets v's canonical text form, in
// hashing order, each line naming the path from the root to what it shows:
// "path = value" for a scalar, "path = nil" for a nil pointer or map, and
// "path = len N" for an empty slice, array or map; one longer than
// shortLen shows as "path = len N sha:H" in place of its entries, H the first
// 8 bytes of its own digest.
func digest(h hash.Hash, text *strings.Builder, path string, v reflect.Value) {
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	leaf := func(value string) {
		if text != nil {
			text.WriteString(path + " = " + value + "\n")
		}
	}
	// sub is the path of a child; only a walk writing text spells it.
	sub := func(format string, a any) string {
		if text == nil {
			return ""
		}
		return path + fmt.Sprintf(format, a)
	}
	// entries reports whether the n entries of a container are to be shown
	// one by one, and writes its one line if not.
	entries := func(n int) bool {
		switch {
		case text == nil:
		case n == 0:
			leaf("len 0")
			return false
		case n > shortLen:
			own := sha256.New()
			digest(own, nil, "", v)
			leaf(fmt.Sprintf("len %d sha:%x", n, own.Sum(nil)[:8]))
			return false
		}
		return true
	}
	switch v.Kind() {
	case reflect.Pointer:
		word(boolWord(v.IsNil()))
		if v.IsNil() {
			leaf("nil")
		} else {
			digest(h, text, path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = "." + name
			}
			digest(h, text, sub("%s", name), v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		if !entries(v.Len()) {
			text = nil
		}
		for i := 0; i < v.Len(); i++ {
			digest(h, text, sub("[%d]", i), v.Index(i))
		}
	case reflect.Map:
		word(boolWord(v.IsNil()))
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		word(uint64(len(keys)))
		if v.IsNil() {
			leaf("nil")
			text = nil
		} else if !entries(len(keys)) {
			text = nil
		}
		for _, k := range keys {
			word(uint64(k.Int()))
			digest(h, text, sub("[%d]", k.Int()), v.MapIndex(k))
		}
	case reflect.Bool:
		word(boolWord(v.Bool()))
		leaf(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
		leaf(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
		leaf(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
		leaf(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
		leaf(strconv.Quote(v.String()))
	default:
		panic(fmt.Sprintf("digest: no encoding for %s", v.Type()))
	}
}

// shortLen is the longest slice, array or map a pin's text shows entry by
// entry.
const shortLen = 16

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// checkPinText compares text, a pin's canonical text form, with the one
// checked in at testdata/pins/name, first rewriting that file if
// -update-pins is set, and reports the first 20 paths whose lines differ
// and how many do.
func checkPinText(t *testing.T, name, text string) {
	t.Helper()
	file := filepath.Join("testdata", "pins", name)
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (rewrite it with go test -run %s -update-pins)", err, t.Name())
	}
	if diff := pinDiff(text, string(raw)); len(diff) > 0 {
		t.Errorf("%s: %d paths differ from the checked-in text (run with -update-pins to rewrite it):\n%s",
			file, len(diff), strings.Join(diff[:min(len(diff), 20)], "\n"))
	}
}

// pinDiff lists the paths of got and want, two pin texts, whose values
// differ or that only one of them has: got's order first, then what only
// want has.
func pinDiff(got, want string) []string {
	parse := func(s string) (paths []string, values map[string]string) {
		values = map[string]string{}
		for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
			path, value, _ := strings.Cut(line, " = ")
			paths = append(paths, path)
			values[path] = value
		}
		return paths, values
	}
	gotPaths, gotValues := parse(got)
	wantPaths, wantValues := parse(want)
	var diff []string
	for _, p := range gotPaths {
		if w, ok := wantValues[p]; !ok {
			diff = append(diff, fmt.Sprintf("  %s = %s, not in the checked-in text", p, gotValues[p]))
		} else if g := gotValues[p]; g != w {
			diff = append(diff, fmt.Sprintf("  %s = %s, checked in as %s", p, g, w))
		}
	}
	for _, p := range wantPaths {
		if _, ok := gotValues[p]; !ok {
			diff = append(diff, fmt.Sprintf("  %s: gone (checked in as %s)", p, wantValues[p]))
		}
	}
	return diff
}

// TestBatteryDigestPinned pins every number the full battery files — all 42
// caches' Stats with their word histograms, Seq and its run count, Foot,
// both iTLBs, the two memory systems and their L1Is — and the machine's own
// results beside them, as one sha256 per run: TPC-B under base, all and
// fusion, and order entry on four shards with the fast path, the p99
// group-commit tuner and fetch stalls. The digests were last recorded when
// Measure's fields were reshaped, with no number of the text form moving; a
// simulator change that moves any statistic of any cache moves one of them. The sha literals decide; beside
// each, the run's text form is checked in under testdata/pins/, so that a
// moved digest names the paths that moved. A re-pin rewrites the text with
//
//	go test ./internal/expt/ -run TestBatteryDigestPinned -update-pins
//
// and edits the literals by hand, so that it shows both diffs.
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
		{"tpcb", tpcbS, "base", "dbc6a8860225e5f8b08d380286b7564eb2586d66d467b3c570140c9bc806220c"},
		{"tpcb", tpcbS, "all", "a9073c97c0ebe3aee2ae4337222da781a8b8e594c0268226aa18c415f68a4f90"},
		{"tpcb", tpcbS, "fusion", "4d5b73f908ab6bdb0af7b9a88a40c851f5cc4b58871ee64c421fcc4357d63f98"},
		{"ordere-4-shards", ordereS, "all", "8b0b9454a0006f63ec370d1c41c81f4dddd6fa966e700ceb863a6bc696bc1f45"},
	}
	for _, tc := range cases {
		m, err := tc.s.Measure(tc.layout, tc.s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		if w := m.App4W[128]; m.Sinks != expt.AllSinks || w == nil || w.WordsUsed.N == 0 || m.ITLB48 <= m.ITLB64 {
			t.Fatalf("%s/%s: not a full-battery measure: sinks %#x, App4W[128] %+v, iTLB misses %d at 64, %d at 48",
				tc.name, tc.layout, m.Sinks, w, m.ITLB64, m.ITLB48)
		}
		// Every application instruction is in one sequence, and every
		// sequence has at least one of the runs.
		if m.Seq.Sum != float64(m.Res.AppInstrs) || m.AppRuns < m.Seq.N {
			t.Errorf("%s/%s: sequences sum to %v instructions in %d runs; the machine ran %d application instructions, and there are %d sequences",
				tc.name, tc.layout, m.Seq.Sum, m.AppRuns, m.Res.AppInstrs, m.Seq.N)
		}
		h := sha256.New()
		var text strings.Builder
		digest(h, &text, "", reflect.ValueOf(m).Elem())
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s/%s: battery digest %s, want %s", tc.name, tc.layout, got, tc.want)
		}
		checkPinText(t, fmt.Sprintf("battery-%s-%s.txt", tc.name, tc.layout), text.String())
	}
}
