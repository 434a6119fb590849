package workload

import (
	"fmt"
	"strings"
	"sync"

	"codelayout/internal/db"
)

// Images keeps a workload's loaded databases, one template per load key, so
// each database is loaded once and copied after that. A workload holds one
// as a field and routes Load through it; the zero value is ready and safe
// for concurrent use. Templates live as long as the workload value, and a
// copy of the value shares those loaded before it was made: a template
// depends on nothing but its key.
type Images[T any] struct {
	m map[string]*image[T]
}

// imagesMu guards the map of every Images. A load holds it only to find its
// key's slot, so one lock for all workloads costs nothing, and a workload
// struct stays free to copy.
var imagesMu sync.Mutex

// image is one key's template: engines holding the loaded database and the
// loader's result bound to them. engs stays nil until a load succeeded.
type image[T any] struct {
	mu   sync.Mutex
	engs []*db.Engine
	inst T
}

// Load fills engs with a database and returns the loader's result bound to
// them. The caller spells the workload inputs the database depends on (its
// scale) into key; Load adds every engine's db.Geometry. The first call for
// a key runs load on engs themselves and keeps a copy of them
// (db.Engine.Clone), with the result rebound to the copy, as the template;
// every later call copies the template into engs (db.Engine.CopyFrom) and
// binds it there. bind(inst, engs) returns a new result whose handles name
// engs' tables and B-trees; it must share nothing mutable with inst.
//
// Concurrent calls for one key wait for the first load; a load that fails
// or panics leaves the key unloaded for the next call.
func (c *Images[T]) Load(key string, engs []*db.Engine, load func([]*db.Engine) (T, error), bind func(T, []*db.Engine) T) (T, error) {
	var k strings.Builder
	k.WriteString(key)
	for _, e := range engs {
		fmt.Fprintf(&k, "|%+v", e.Geometry())
	}
	imagesMu.Lock()
	if c.m == nil {
		c.m = make(map[string]*image[T])
	}
	img := c.m[k.String()]
	if img == nil {
		img = &image[T]{}
		c.m[k.String()] = img
	}
	imagesMu.Unlock()

	img.mu.Lock()
	if img.engs == nil {
		defer img.mu.Unlock()
		inst, err := load(engs)
		if err != nil {
			return inst, err
		}
		tmpl := make([]*db.Engine, len(engs))
		for i, e := range engs {
			if tmpl[i], err = e.Clone(); err != nil {
				return inst, err
			}
		}
		img.engs, img.inst = tmpl, bind(inst, tmpl)
		return inst, nil
	}
	img.mu.Unlock()
	for i, e := range engs {
		if err := e.CopyFrom(img.engs[i]); err != nil {
			var zero T
			return zero, err
		}
	}
	return bind(img.inst, engs), nil
}
