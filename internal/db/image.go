package db

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
)

// Geometry is what a loader reads of an empty engine besides the workload's
// own inputs: the shard index, the page window, the buffer-pool capacity and
// the field hints. A load into two empty engines of one geometry builds the
// same database, which is what lets CopyFrom stand in for it.
type Geometry struct {
	Shard int
	// PageBase is the first page ID the engine allocates (its shard index
	// times the group's page stride); PageLimit caps its allocations.
	PageBase  PageID
	PageLimit PageID
	PoolPages int
	// Hints spells the engine's field hints canonically ("" for none).
	Hints string
}

// Geometry returns the engine's geometry.
func (e *Engine) Geometry() Geometry {
	return Geometry{Shard: e.Shard, PageBase: e.pageBase, PageLimit: e.pageLimit,
		PoolPages: e.Pool.capacity, Hints: e.hintsKey}
}

// empty reports whether nothing was ever created, written or logged on e.
func (e *Engine) empty() bool {
	return len(e.tables) == 0 && len(e.btrees) == 0 && e.nextPage == e.pageBase &&
		e.nextTxn == 1 && len(e.Disk.pages) == 0 && len(e.Pool.frames) == 0 &&
		e.Pool.clock == 0 && e.WAL.nextLSN == 1
}

// CopyFrom fills e, an empty engine of src's geometry, with src's database,
// so that e is indistinguishable from an engine the same load had filled:
//
//   - the disk's page images, shared (Disk replaces an image on Write and
//     never edits one in place);
//   - the resident pool frames, copied, with the LRU clock of every page, the
//     pool's clock and its miss count;
//   - the WAL's record chunks, shared, the last one clipped to its length
//     so that e's first append opens a chunk of e's own; its LSNs, flushed
//     LSN, appended bytes and counters;
//   - the table and B-tree catalogs, each table with its field layout, its
//     access tally and its page list (shared like the records);
//   - the page and transaction counters and the commit statistics.
//
// e keeps its own runtime fields: Env, the wait graph and the log's wait
// queue. src is only read, so many engines may
// copy one src at once. The lock table is not part of a database: CopyFrom
// refuses a src holding lock state — a key some transaction holds or a
// waiter has pinned; released keys leave the table — as it refuses an e
// that is not empty or whose geometry differs.
func (e *Engine) CopyFrom(src *Engine) error { return e.copyFrom(src, false) }

// copyFrom is CopyFrom; frozen says nothing will ever write e, so a clean
// frame whose bytes are its disk image's may hold that image itself.
func (e *Engine) copyFrom(src *Engine, frozen bool) error {
	if g, sg := e.Geometry(), src.Geometry(); g != sg {
		return fmt.Errorf("db: copy into an engine of geometry %+v from one of %+v", g, sg)
	}
	if !e.empty() {
		return fmt.Errorf("db: copy into shard %d: the engine is not empty", e.Shard)
	}
	if len(src.Locks.locks) > 0 {
		return fmt.Errorf("db: copy from shard %d: the engine holds lock state", src.Shard)
	}

	e.Disk.pages = maps.Clone(src.Disk.pages)

	sp, dp := src.Pool, e.Pool
	frames := make([]Page, len(sp.frames))
	dp.frames = make(map[PageID]*Page, len(sp.frames))
	i := 0
	for id, pg := range sp.frames {
		f := &frames[i]
		*f = *pg
		if img := src.Disk.pages[id]; frozen && !pg.Dirty && bytes.Equal(pg.Data, img) {
			f.Data = img
		} else {
			f.Data = slices.Clone(pg.Data)
		}
		dp.frames[id] = f
		i++
	}
	dp.lru = maps.Clone(sp.lru)
	dp.clock, dp.Misses = sp.clock, sp.Misses

	sw, dw := src.WAL, e.WAL
	dw.chunks = slices.Clone(sw.chunks)
	if last := len(dw.chunks) - 1; last >= 0 {
		dw.chunks[last] = slices.Clip(dw.chunks[last])
	}
	dw.nextLSN, dw.FlushedLSN, dw.Flushing = sw.nextLSN, sw.FlushedLSN, sw.Flushing
	dw.Flushes, dw.GroupedCommits = sw.Flushes, sw.GroupedCommits
	dw.TotalAppended, dw.bufBytes = sw.TotalAppended, sw.bufBytes

	for name, st := range src.tables {
		t := &Table{Name: st.Name, Pages: st.Pages[:len(st.Pages):len(st.Pages)], eng: e}
		if st.fields != nil {
			t.setFields(st.fields)
			for name, f := range st.byName {
				t.byName[name].FieldAccess = f.FieldAccess
			}
		}
		e.tables[name] = t
	}
	for name, sb := range src.btrees {
		e.btrees[name] = &BTree{Name: sb.Name, eng: e, root: sb.root, height: sb.height}
	}

	e.nextPage, e.nextTxn = src.nextPage, src.nextTxn
	e.Committed, e.Aborted, e.Deadlocks = src.Committed, src.Aborted, src.Deadlocks
	e.Locks.Conflicts = src.Locks.Conflicts
	return nil
}

// Clone returns a new engine of e's geometry holding a copy of e's database
// (CopyFrom), with NewEngine's runtime defaults: NopEnv and a private wait
// graph. A loader keeps one as the template later loads copy, so nothing may
// write the clone: a clean frame of it holds its disk image itself, and a
// checkpointed database costs one copy of its pages.
func (e *Engine) Clone() (*Engine, error) {
	c := NewEngine(Config{BufferPoolPages: e.Pool.capacity, Shard: e.Shard, PageLimit: e.pageLimit})
	c.pageBase, c.nextPage = e.pageBase, e.pageBase
	c.fieldHints, c.hintsKey = maps.Clone(e.fieldHints), e.hintsKey
	if err := c.copyFrom(e, true); err != nil {
		return nil, err
	}
	return c, nil
}
