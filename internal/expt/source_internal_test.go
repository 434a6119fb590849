package expt

import (
	"testing"

	"codelayout/internal/pstore"
)

// TestStoreKeyIsTheOnDiskFormat pins the key a training run is stored under.
// Store directories already on disk were written with it, so any change to
// it turns every one of them into a cold start. Training runs ungrouped, so
// the key says "gc0/pcfalse" whatever group commit the session measures with.
func TestStoreKeyIsTheOnDiskFormat(t *testing.T) {
	const image = "00000000000000aa-00000000000000bb"
	want := pstore.Key{Spec: "tpcb/s4/c2/seed1998/w40/x400|p6/gc0/pcfalse/fptrue/dcpi256", Image: image}
	for _, measured := range []func(*Options){
		func(*Options) {},
		func(o *Options) { o.GroupCommitWindowInstr = 60_000 },
		func(o *Options) { o.PerCommitLogFlush = true },
	} {
		o := QuickOptions()
		o.Shards, o.PredictFastPath = 4, true
		measured(&o)
		ps := &ProfileSource{opt: o, imageID: image}
		if got := ps.storeKey(o.resolveTrain().Spec()); got != want {
			t.Errorf("store key %+v, want %+v", got, want)
		}
	}
}
