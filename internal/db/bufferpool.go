package db

import (
	"fmt"
)

// Disk is the stable storage behind the buffer pool. The simulated disk
// keeps page images in memory; reads and writes are instantaneous here —
// I/O latency is charged by the machine behind the engine's Env.
type Disk struct {
	pages map[PageID][]byte
}

// NewDisk creates an empty disk.
func NewDisk() *Disk { return &Disk{pages: make(map[PageID][]byte)} }

// Read copies the page image from disk, or returns a zero page for never-
// written pages.
func (d *Disk) Read(id PageID) []byte {
	img, ok := d.pages[id]
	if !ok {
		return make([]byte, PageBytes)
	}
	out := make([]byte, PageBytes)
	copy(out, img)
	return out
}

// Write stores a page image.
func (d *Disk) Write(id PageID, data []byte) {
	img := make([]byte, PageBytes)
	copy(img, data)
	d.pages[id] = img
}

// BufferPool caches pages in memory with LRU replacement and pinning. OLTP
// runs keep the whole database resident (the paper caches all tables in
// memory), so after warmup only log writes perform I/O.
type BufferPool struct {
	disk     *Disk
	capacity int
	frames   map[PageID]*Page
	// lru is an access counter per page for eviction; simple and
	// deterministic.
	lru    map[PageID]uint64
	clock  uint64
	Misses uint64
}

// NewBufferPool creates a pool holding up to capacity pages.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*Page),
		lru:      make(map[PageID]uint64),
	}
}

// get fetches the page, reading from disk on a miss (possibly evicting).
// The returned page is pinned; callers must Unpin. The hit result lets the
// instrumented wrapper report the branch outcome.
func (bp *BufferPool) get(id PageID) (*Page, bool, error) {
	bp.clock++
	if pg, ok := bp.frames[id]; ok {
		bp.lru[id] = bp.clock
		pg.pin++
		return pg, true, nil
	}
	bp.Misses++
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			return nil, false, err
		}
	}
	pg := &Page{ID: id, Data: bp.disk.Read(id)}
	bp.frames[id] = pg
	bp.lru[id] = bp.clock
	pg.pin++
	return pg, false, nil
}

// evictOne writes back and drops the least recently used unpinned page.
func (bp *BufferPool) evictOne() error {
	var victim PageID
	var vAt uint64 = ^uint64(0)
	found := false
	for id, at := range bp.lru {
		pg := bp.frames[id]
		if pg.pin > 0 {
			continue
		}
		if at < vAt || (at == vAt && (!found || id < victim)) {
			victim, vAt, found = id, at, true
		}
	}
	if !found {
		return fmt.Errorf("bufferpool: all %d frames pinned", len(bp.frames))
	}
	pg := bp.frames[victim]
	if pg.Dirty {
		bp.disk.Write(victim, pg.Data)
	}
	delete(bp.frames, victim)
	delete(bp.lru, victim)
	return nil
}

// Unpin releases a pin taken by get.
func (bp *BufferPool) Unpin(pg *Page) {
	if pg.pin <= 0 {
		panic(fmt.Sprintf("bufferpool: unpin of unpinned page %d", pg.ID))
	}
	pg.pin--
}

// FlushAll writes every dirty page back to disk (checkpoint).
func (bp *BufferPool) FlushAll() {
	for id, pg := range bp.frames {
		if pg.Dirty {
			bp.disk.Write(id, pg.Data)
			pg.Dirty = false
		}
	}
}

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int { return len(bp.frames) }
