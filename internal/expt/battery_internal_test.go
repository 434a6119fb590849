package expt

import (
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/trace"
)

// TestBatteryRejectsForeignCPU: the battery is sized from the machine.Config
// it is attached to, so a fetch run from a CPU beyond it is a bug and panics
// instead of being folded into the last CPU's statistics — through every use
// of the one per-CPU router: a one-member family, a two-member one, the five
// direct-mapped families, the TLBs and a memory system's L1I.
func TestBatteryRejectsForeignCPU(t *testing.T) {
	for _, set := range []SinkSet{SinkApp4W(64), SinkApp4W(64) | SinkApp4W(128), SinkAppDM, SinkITLB, SinkMem} {
		cfg := machine.Config{CPUs: 2}
		attachBattery(&cfg, set)
		if len(cfg.Sinks) != 1 {
			t.Fatalf("set %#x attached %d fetch sinks, want one stream", set, len(cfg.Sinks))
		}
		cfg.Sinks[0].Fetch(trace.FetchRun{Addr: 0x1000, Words: 4, CPU: 1})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set %#x: a run on cpu 2 of a 2-cpu battery did not panic", set)
				}
			}()
			cfg.Sinks[0].Fetch(trace.FetchRun{Addr: 0x1000, Words: 4, CPU: 2})
		}()
	}
	cfg := machine.Config{CPUs: 2}
	if collect := attachBattery(&cfg, NoSinks); len(collect)+len(cfg.Sinks)+len(cfg.DataSinks) != 0 {
		t.Errorf("the empty set attached %d sinks", len(cfg.Sinks)+len(cfg.DataSinks))
	}
}
