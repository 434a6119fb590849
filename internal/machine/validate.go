package machine

import (
	"fmt"
	"math"

	"codelayout/internal/db"
	"codelayout/internal/trace"
)

// MaxShards bounds the shard count. The shards' page-address windows share
// the 1 GB region below the log buffers: up to 16 shards keep the historical
// 64 MB (8192-page) stride — existing results stay bit-identical — and wider
// groups divide the region evenly (64 shards get 16 MB windows each).
const MaxShards = 64

// wideShardThreshold is the largest shard count that keeps the historical
// db.ShardPageStride windows; above it the region is divided evenly.
const wideShardThreshold = 16

// MaxFetchStallPenaltyInstr is the largest Config.FetchStallPenaltyInstr.
// Every L1I miss adds the penalty to its CPU's clock and to
// Result.FetchStallInstr, so a run would need 2^48 misses, more than the
// instructions any simulated run executes, before a sum of penalties this
// large wrapped a uint64.
const MaxFetchStallPenaltyInstr = 1 << 16

// MaxDelayInstr is the largest Config.TimerIntervalInstr, LogWriteDelayInstr
// and PreadDelayInstr. Each is added to a CPU clock once per timer tick, log
// write or page read, and the group-commit tuners try windows up to twice the
// log-write delay, so at this ceiling the doubling stays far from wrapping a
// uint64 and a run would need 2^32 such events before their sum did.
const MaxDelayInstr = 1 << 32

// Validate checks a configuration before any engine is built, so
// misconfigurations surface as errors here instead of panics (or wedged
// scheduler loops) deep inside a run. Zero values that withDefaults fills
// are accepted; explicitly negative or contradictory settings are not.
func (c Config) Validate() error {
	if c.Workload == nil {
		return fmt.Errorf("machine: Config.Workload is required")
	}
	if c.AppImage == nil || c.AppLayout == nil || c.KernImage == nil || c.KernLayout == nil {
		return fmt.Errorf("machine: images and layouts are required")
	}
	// The emitter indexes the layout's per-block tables with the image's
	// block ids: a layout of another program (a fused layout beside the
	// unspecialized image, say) would walk wrong addresses or run off the end.
	if c.AppLayout.Prog != c.AppImage.Prog {
		return fmt.Errorf("machine: AppLayout lays out a different program than AppImage (a fused layout runs over its specialized image: Session.AppImageFor)")
	}
	if c.KernLayout.Prog != c.KernImage.Prog {
		return fmt.Errorf("machine: KernLayout lays out a different program than KernImage")
	}
	if c.CPUs < 0 {
		return fmt.Errorf("machine: CPUs = %d; must be >= 1 (0 selects the default)", c.CPUs)
	}
	// A fetch run names its CPU in a uint8 and per-CPU sinks hold MaxCPUs
	// slots: one CPU more would alias CPU 0 in every trace event.
	if c.CPUs > trace.MaxCPUs {
		return fmt.Errorf("machine: CPUs = %d exceeds the maximum of %d", c.CPUs, trace.MaxCPUs)
	}
	if c.ProcsPerCPU < 0 {
		return fmt.Errorf("machine: ProcsPerCPU = %d; must be >= 1 (0 selects the default)", c.ProcsPerCPU)
	}
	if c.Transactions < 0 {
		return fmt.Errorf("machine: Transactions = %d; must be >= 0", c.Transactions)
	}
	if c.WarmupTxns < 0 {
		return fmt.Errorf("machine: WarmupTxns = %d; must be >= 0", c.WarmupTxns)
	}
	// The quantum is a signed budget the emitter counts down: a value past
	// MaxInt64 would start negative and preempt the process on every run.
	if c.QuantumInstr > math.MaxInt64 {
		return fmt.Errorf("machine: QuantumInstr = %d exceeds the maximum of %d", c.QuantumInstr, int64(math.MaxInt64))
	}
	if c.FetchStallPenaltyInstr > MaxFetchStallPenaltyInstr {
		return fmt.Errorf("machine: FetchStallPenaltyInstr = %d exceeds the maximum of %d", c.FetchStallPenaltyInstr, MaxFetchStallPenaltyInstr)
	}
	for _, d := range [...]struct {
		name string
		v    uint64
	}{
		{"TimerIntervalInstr", c.TimerIntervalInstr},
		{"LogWriteDelayInstr", c.LogWriteDelayInstr},
		{"PreadDelayInstr", c.PreadDelayInstr},
	} {
		if d.v > MaxDelayInstr {
			return fmt.Errorf("machine: %s = %d exceeds the maximum of %d", d.name, d.v, uint64(MaxDelayInstr))
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("machine: Shards = %d; must be >= 1 (0 selects the default of one shard)", c.Shards)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("machine: Shards = %d exceeds the maximum of %d", c.Shards, MaxShards)
	}
	// Each shard owns a bounded page-address window; a database whose
	// loaded slice (plus growth headroom) cannot fit would silently alias
	// its neighbor's pages in the cache models.
	shards := c.Shards
	if shards <= 0 {
		shards = 1
	}
	if need := c.Workload.DataPages()/shards + growthHeadroom(shards); need > int(pageLimit(shards)) {
		return fmt.Errorf("machine: workload needs ~%d pages per shard but each of %d shards owns a %d-page window; use more shards, a smaller scale, or one shard",
			need, shards, pageLimit(shards))
	}
	if c.PredictFastPath {
		if shards <= 1 {
			return fmt.Errorf("machine: PredictFastPath needs Shards > 1 (a single engine has no router to skip)")
		}
		if c.AppImage.Fns["predict_check"] == nil || c.AppImage.Fns["predict_train"] == nil {
			return fmt.Errorf("machine: PredictFastPath needs the predictor models in the app image; build it with appmodel.Config.FastPath")
		}
	}
	if _, err := ParseGroupCommit(string(c.AutoGroupCommit)); err != nil {
		return fmt.Errorf("machine: AutoGroupCommit: %w", err)
	}
	if r := c.Reopt; r != nil {
		// Every range check is written so that NaN fails it.
		switch {
		case r.Every < 1:
			return fmt.Errorf("machine: Reopt.Every = %d; must be >= 1 (a nil Reopt disables re-optimization)", r.Every)
		case r.Retrain == nil:
			return fmt.Errorf("machine: Reopt.Retrain is required: the hook the loop retrains with")
		case !(r.Drift >= 0 && r.Drift <= 2):
			return fmt.Errorf("machine: Reopt.Drift = %v; the L1 kind-mix distance lies in [0, 2] (0 selects the default %v)",
				r.Drift, DefaultDriftThreshold)
		}
		for kind, f := range r.TrainMix {
			if !(f >= 0) {
				return fmt.Errorf("machine: Reopt.TrainMix[%q] = %v; frequencies must be non-negative", kind, f)
			}
		}
	}
	return nil
}

// pageRegion is the whole page-address region below the shared log buffers.
func pageRegion() db.PageID { return db.PageID(0x4000_0000 / db.PageBytes) }

// pageStride is the page-ID distance between consecutive shards' allocation
// bases: the historical 64 MB stride up to wideShardThreshold shards (so
// existing sharded results stay bit-identical), an even division of the
// region above it.
func pageStride(shards int) db.PageID {
	if shards <= wideShardThreshold {
		return db.ShardPageStride
	}
	return pageRegion() / db.PageID(shards)
}

// pageLimit is the page-allocation cap per shard: the inter-shard stride
// when sharded, the whole region below the shared log buffer when single.
func pageLimit(shards int) db.PageID {
	if shards > 1 {
		return pageStride(shards)
	}
	return pageRegion()
}

// growthHeadroom is the per-shard page allowance, beyond the loaded data,
// for tables that grow during a run (history, orders) and index pages. Wide
// groups have narrow windows and proportionally less per-shard growth, so
// they budget less.
func growthHeadroom(shards int) int {
	if shards <= wideShardThreshold {
		return 4096
	}
	return 1024
}
