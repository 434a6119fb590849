package workload

import (
	"fmt"
	"strings"
	"sync"

	"codelayout/internal/db"
	"codelayout/internal/shard"
)

// Images keeps a workload's loaded databases, one template per load key, so
// each database is loaded once and copied after that. A workload holds one
// as a field and routes Load through it; the zero value is ready and safe
// for concurrent use. Templates live as long as the workload value, and a
// copy of the value shares those loaded before it was made: a template
// depends on nothing but its key.
type Images[B any] struct {
	m map[string]*image[B]
}

// imagesMu guards the map of every Images. A load holds it only to find its
// key's slot, so one lock for all workloads costs nothing, and a workload
// struct stays free to copy.
var imagesMu sync.Mutex

// image is one key's template: engines holding the loaded database and each
// shard's loader result bound to its engine. engs stays nil until a load
// succeeded.
type image[B any] struct {
	mu     sync.Mutex
	engs   []*db.Engine
	shards []B
}

// Load fills engs with a database hash-partitioned across them and returns
// one shard handle per engine, shards[i] bound to engs[i]. The caller passes
// the scale part of its Spec as key, the only workload input the database
// depends on; Load adds every engine's db.Geometry, so another shard count
// is another key.
//
// The first call for a key runs loadShard(engs[i], own) on each engine,
// where own accepts exactly the partition keys shard.Map gives shard i, and
// keeps a copy of each loaded engine (db.Engine.Clone), with the shard
// rebound to the copy, as the template; every later call copies the
// template into engs (db.Engine.CopyFrom) and binds each shard there.
// bind(b, eng) returns a new shard whose handles name eng's tables and
// B-trees; it must share nothing mutable with b.
//
// Concurrent calls for one key wait for the first load; a load that fails
// or panics leaves the key unloaded for the next call.
func (c *Images[B]) Load(key string, engs []*db.Engine, loadShard func(eng *db.Engine, own func(uint64) bool) (B, error), bind func(B, *db.Engine) B) ([]B, error) {
	var k strings.Builder
	k.WriteString(key)
	for _, e := range engs {
		g := e.Geometry()
		fmt.Fprintf(&k, "|s%d/p%d-%d/pool%d/%s", g.Shard, g.PageBase, g.PageLimit, g.PoolPages, g.Hints)
	}
	imagesMu.Lock()
	if c.m == nil {
		c.m = make(map[string]*image[B])
	}
	img := c.m[k.String()]
	if img == nil {
		img = &image[B]{}
		c.m[k.String()] = img
	}
	imagesMu.Unlock()

	shards := make([]B, len(engs))
	img.mu.Lock()
	if img.engs == nil {
		defer img.mu.Unlock()
		m := shard.Map{Shards: len(engs)}
		tmpl, tmplShards := make([]*db.Engine, len(engs)), make([]B, len(engs))
		for i, e := range engs {
			b, err := loadShard(e, func(key uint64) bool { return m.Of(key) == i })
			if err != nil {
				return nil, err
			}
			if tmpl[i], err = e.Clone(); err != nil {
				return nil, err
			}
			shards[i], tmplShards[i] = b, bind(b, tmpl[i])
		}
		img.engs, img.shards = tmpl, tmplShards
		return shards, nil
	}
	img.mu.Unlock()
	for i, e := range engs {
		if err := e.CopyFrom(img.engs[i]); err != nil {
			return nil, err
		}
		shards[i] = bind(img.shards[i], e)
	}
	return shards, nil
}
