package workload_test

import (
	"reflect"
	"testing"

	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// TestWorkloadSpecCoversEveryField: Spec is the workload's part of every key
// a run is memoized or stored under, so every exported field of a workload
// and of its Scale must show in it. For tpcb, ordere and ycsb the test sets
// each such field, one at a time, to a second valid value and requires Spec
// to change. A field with no second value listed here fails the test, so a
// knob added later cannot be left out of the key.
func TestWorkloadSpecCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		wl     workload.Workload
		second map[string]any // field path → a second valid value
	}{
		{tpcb.New(), map[string]any{
			"Scale.Branches": 12, "Scale.TellersPerBranch": 3, "Scale.AccountsPerBranch": 100,
			"CrossShardPct": 30, "HotAccountFrac": 0.2,
		}},
		{ordere.New(), map[string]any{
			"Scale.Warehouses": 3, "Scale.DistrictsPerWarehouse": 4, "Scale.CustomersPerDistrict": 60,
			"Scale.Items": 300, "CrossShardPct": 30,
		}},
		{ycsb.New(), map[string]any{
			"Scale.Records": 4000, "ReadPct": 50, "ZipfTheta": 0.5, "CrossShardPct": 10,
			"Label": "ycsb-5050", "ShiftAfterGens": 100, "ShiftReadPct": 5,
		}},
	} {
		base := c.wl.Spec()
		if again := c.wl.Spec(); again != base {
			t.Errorf("%s: Spec is not a function of the fields: %q, then %q", c.wl.Name(), base, again)
		}
		orig := reflect.ValueOf(c.wl).Elem()
		seen := 0
		var walk func(typ reflect.Type, index []int, path string)
		walk = func(typ reflect.Type, index []int, path string) {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					continue
				}
				idx, name := append(append([]int(nil), index...), i), path+f.Name
				if f.Type.Kind() == reflect.Struct {
					walk(f.Type, idx, name+".")
					continue
				}
				second, ok := c.second[name]
				if !ok {
					t.Errorf("%s: field %s has no second value here; give it one and spell it in Spec", c.wl.Name(), name)
					continue
				}
				seen++
				cp := reflect.New(orig.Type())
				cp.Elem().Set(orig)
				fv := cp.Elem().FieldByIndex(idx)
				nv := reflect.ValueOf(second).Convert(f.Type)
				if fv.Equal(nv) {
					t.Errorf("%s: the second value of %s, %v, is its first", c.wl.Name(), name, second)
					continue
				}
				fv.Set(nv)
				if got := cp.Interface().(workload.Workload).Spec(); got == base {
					t.Errorf("%s: setting %s to %v leaves Spec %q", c.wl.Name(), name, second, got)
				}
			}
		}
		walk(orig.Type(), nil, "")
		if seen != len(c.second) {
			t.Errorf("%s: %d second values name no exported field", c.wl.Name(), len(c.second)-seen)
		}
	}
}
