// Package kernel models the operating-system code image: the services the
// machine's db.Env runs at the engine's kernel crossings (log writes, the
// group-commit sleep, data reads, lock sleeps), the scheduler/context-switch
// path, and the timer interrupt. Section 5 of the paper studies how this
// stream interferes with the application's in the instruction cache.
//
// Kernel services carry no engine instrumentation — they are auto functions
// walked to completion by a codegen.Emitter when the machine crosses into
// the kernel.
package kernel

import (
	"codelayout/internal/codegen"
	"codelayout/internal/isa"
)

// Service names the machine can invoke.
const (
	SvcLogWrite  = "svc_log_write"
	SvcLogWait   = "svc_log_wait"
	SvcPread     = "svc_pread"
	SvcLockSleep = "svc_lock_sleep"
	SvcTimer     = "svc_timer"
	SvcSwitch    = "svc_switch"
)

// Config shapes the kernel image.
type Config struct {
	Seed int64
	// ColdWords is the unexercised kernel code (default ~6 MB image tail).
	ColdWords int
}

// DefaultConfig returns the standard kernel shape.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, ColdWords: 1_400_000}
}

// layers are the kernel's library: low-level utilities, VM, filesystem,
// driver, scheduler and trap entry, bottom first.
var layers = []codegen.LibConfig{
	{Prefix: "klib", N: 70, MeanWords: 60},
	{Prefix: "kvm", N: 40, MeanWords: 55, CallsPerFn: 1, PickWidth: 4, Pools: []string{"klib"}},
	{Prefix: "kfs", N: 60, MeanWords: 70, CallsPerFn: 2, PickWidth: 6, Pools: []string{"klib", "kvm"}},
	{Prefix: "kdrv", N: 40, MeanWords: 80, CallsPerFn: 1, PickWidth: 4, Pools: []string{"klib"}},
	{Prefix: "ksch", N: 30, MeanWords: 50, CallsPerFn: 1, PickWidth: 4, Pools: []string{"klib"}},
	{Prefix: "ktrap", N: 25, MeanWords: 40},
}

// Build assembles the kernel image: the service models over the library
// layers, linked with the kernel's cold code.
func Build(cfg Config) (*codegen.Image, error) {
	lib := codegen.NewLibrary(cfg.Seed, layers)
	pick := lib.Pick
	services := []codegen.FnSpec{
		{Name: SvcLogWrite, Auto: true, Body: []codegen.Frag{
			codegen.Seq(18), pick("ktrap", 3),
			pick("kfs", 5),
			codegen.AutoLoop{Prob: 0.82, Head: 2, Body: []codegen.Frag{codegen.Seq(9)}},
			pick("kdrv", 5),
			codegen.Seq(12), pick("ksch", 3),
		}},
		{Name: SvcLogWait, Auto: true, Body: []codegen.Frag{
			codegen.Seq(14), pick("ktrap", 3),
			pick("ksch", 4),
			codegen.Seq(8),
		}},
		{Name: SvcPread, Auto: true, Body: []codegen.Frag{
			codegen.Seq(18), pick("ktrap", 3),
			pick("kfs", 5),
			codegen.AutoLoop{Prob: 0.85, Head: 2, Body: []codegen.Frag{codegen.Seq(10)}},
			pick("kdrv", 4), pick("kvm", 4),
			codegen.Seq(10),
		}},
		{Name: SvcLockSleep, Auto: true, Body: []codegen.Frag{
			codegen.Seq(12), pick("ktrap", 3),
			pick("ksch", 4),
			codegen.Seq(6),
		}},
		{Name: SvcTimer, Auto: true, Body: []codegen.Frag{
			codegen.Seq(10), pick("ktrap", 3),
			codegen.AutoIf{Prob: 0.3, Then: []codegen.Frag{pick("ksch", 3)}},
			codegen.Seq(6),
		}},
		{Name: SvcSwitch, Auto: true, Body: []codegen.Frag{
			codegen.Seq(12), pick("ksch", 5),
			pick("kvm", 3),
			codegen.Seq(14),
		}},
	}

	return lib.Link("tru64-like-kernel", isa.KernelTextBase, services, "kcold", cfg.ColdWords, 1000)
}
