package expt_test

import (
	"reflect"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
)

// sinkGroupsOf lists the single-group sets: one per bit of AllSinks.
func sinkGroupsOf() []expt.SinkSet {
	var out []expt.SinkSet
	for g := expt.SinkSet(1); g < expt.AllSinks; g <<= 1 {
		out = append(out, g)
	}
	return out
}

// fileGroup copies every battery field the partial measure m carries into
// whole, failing if the full battery's measure disagrees on it or a second
// group also produced it. Fields are walked by reflection so a field added to
// Measure is covered without touching the test.
func fileGroup(t *testing.T, whole, m, full *expt.Measure) {
	t.Helper()
	dst, src, ref := reflect.ValueOf(whole).Elem(), reflect.ValueOf(m).Elem(), reflect.ValueOf(full).Elem()
	for i := 0; i < src.NumField(); i++ {
		name := src.Type().Field(i).Name
		switch name {
		case "Res", "Sinks", "Latency", "GCWindows":
			continue // the machine's own; compared by the caller
		}
		sv, dv, rv := src.Field(i), dst.Field(i), ref.Field(i)
		if sv.IsZero() {
			continue
		}
		if sv.Kind() != reflect.Map {
			if !dv.IsZero() {
				t.Errorf("set %#x: field %s was already produced by another group", m.Sinks, name)
			}
			if !reflect.DeepEqual(sv.Interface(), rv.Interface()) {
				t.Errorf("set %#x: field %s differs from the full battery's", m.Sinks, name)
			}
			dv.Set(sv)
			continue
		}
		if dv.IsNil() {
			dv.Set(reflect.MakeMap(sv.Type()))
		}
		for _, k := range sv.MapKeys() {
			if dv.MapIndex(k).IsValid() {
				t.Errorf("set %#x: %s[%v] was already produced by another group", m.Sinks, name, k)
			}
			if r := rv.MapIndex(k); !r.IsValid() || !reflect.DeepEqual(sv.MapIndex(k).Interface(), r.Interface()) {
				t.Errorf("set %#x: %s[%v] differs from the full battery's", m.Sinks, name, k)
			}
			dv.SetMapIndex(k, sv.MapIndex(k))
		}
	}
}

// TestSinksArePassiveAndIndependent: what a run attaches never changes what
// the machine does, and a sink group simulated alone reads exactly what it
// reads inside the full battery. For TPC-B on one engine and order entry on
// four shards with the fast path and the p99 group-commit tuner, the
// machine's own results are bit-identical under the empty set, every single
// group and the full set; every field a single group files equals the full
// battery's (Mem alone therefore brings the L1I that feeds its L2); no two
// groups file the same field; and the groups together file everything the
// full battery does.
func TestSinksArePassiveAndIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	cases := map[string]func() expt.Options{
		"tpcb": func() expt.Options {
			return tinyOptions(tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}))
		},
		"ordere-4-shards": func() expt.Options {
			o := tinyOptions(tinyOrdere())
			o.Shards = 4
			o.PredictFastPath = true
			o.AutoGroupCommit = machine.AutoGCTargetP99
			o.FetchStallPenaltyInstr = 40
			return o
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			o := mk()
			o.Transactions, o.WarmupTxns, o.Train.Txns = 40, 10, 100
			s, err := expt.NewSession(o)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(set expt.SinkSet) *expt.Measure {
				m, err := s.Reading(set).Measure("all", o.CPUs)
				if err != nil {
					t.Fatal(err)
				}
				if m.Sinks != set {
					t.Fatalf("measure of set %#x records set %#x", set, m.Sinks)
				}
				return m
			}
			full := measure(expt.AllSinks)
			if viaSession, _ := s.Measure("all", o.CPUs); viaSession != full {
				t.Fatal("Session.Measure is not the full set's memo entry")
			}
			if full.Res.Committed != uint64(o.Transactions) || len(full.Latency) == 0 || len(full.GCWindows) != max(o.Shards, 1) {
				t.Fatalf("full run: committed %d, %d latency cells, windows %v", full.Res.Committed, len(full.Latency), full.GCWindows)
			}
			if o.PredictFastPath && full.Res.Predicted == 0 {
				t.Fatal("the fast path predicted nothing; the sharded case does not exercise it")
			}

			bare := measure(expt.NoSinks)
			if want := (&expt.Measure{Res: full.Res, Latency: full.Latency, GCWindows: full.GCWindows}); !reflect.DeepEqual(bare, want) {
				t.Errorf("empty set: the machine's results moved or a battery field is set:\n%+v", bare)
			}

			whole := &expt.Measure{Res: full.Res, Sinks: expt.AllSinks, Latency: full.Latency, GCWindows: full.GCWindows}
			groups := sinkGroupsOf()
			for _, g := range groups {
				m := measure(g)
				if m.Res != full.Res || !reflect.DeepEqual(m.Latency, full.Latency) || !reflect.DeepEqual(m.GCWindows, full.GCWindows) {
					t.Errorf("set %#x: attaching sinks changed the machine's results", g)
				}
				fileGroup(t, whole, m, full)
			}
			if !reflect.DeepEqual(whole, full) {
				t.Error("the single groups together do not file everything the full battery does")
			}

			// A field outside the set is nil, not another run's numbers.
			one := measure(expt.SinkApp4W(64))
			if len(one.App4W) != 1 || one.App4W[64] == nil || one.App4W[64].WordsUsed != nil || one.Comb4W != nil || one.Seq != nil {
				t.Errorf("set App4W[64] filed more than App4W[64]: %+v", one)
			}
			if again := measure(expt.SinkApp4W(64)); again != one {
				t.Error("repeated partial measure missed the memo")
			}
			// Two sizes of one family are walked together, and each still
			// reads what it reads in the full family.
			two := measure(expt.SinkApp4W(64) | expt.SinkApp4W(128))
			if len(two.App4W) != 2 || two.App4W[128].WordsUsed.N == 0 ||
				!reflect.DeepEqual(two.App4W[64], full.App4W[64]) || !reflect.DeepEqual(two.App4W[128], full.App4W[128]) {
				t.Errorf("set App4W[64]|App4W[128] differs from the full battery's members: %+v", two)
			}
			if got, want := s.MemoStats().Measure.Misses, uint64(len(groups)+3); got != want {
				t.Errorf("%d simulations for %d distinct sets", got, want)
			}
		})
	}
}

// TestSinkSetNames: the per-size constructors cover the cache-size axis with
// distinct bits inside AllSinks, and an unknown size names nothing.
func TestSinkSetNames(t *testing.T) {
	seen := expt.SinkAppDM | expt.SinkSeq | expt.SinkFoot | expt.SinkITLB | expt.SinkMem | expt.SinkBoard
	for _, size := range expt.CacheSizesKB {
		for fam, bit := range map[string]expt.SinkSet{
			"app": expt.SinkApp4W(size), "comb": expt.SinkComb4W(size), "kern": expt.SinkKern4W(size),
		} {
			if bit == 0 || bit&(bit-1) != 0 || bit&seen != 0 {
				t.Errorf("%s 4-way %dKB = %#x: want one fresh bit (seen %#x)", fam, size, bit, seen)
			}
			seen |= bit
		}
	}
	if seen != expt.AllSinks {
		t.Errorf("named groups cover %#x, AllSinks is %#x", seen, expt.AllSinks)
	}
	if got := expt.SinkApp4W(96); got != expt.NoSinks {
		t.Errorf("SinkApp4W(96) = %#x, want the empty set", got)
	}
}
