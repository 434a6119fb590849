package expt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"codelayout/internal/cache"
	"codelayout/internal/machine"
	"codelayout/internal/trace"
)

// event is one entry of a measured run's log, a fetch run or a data
// reference, in 16 bytes.
type event struct {
	addr  uint64
	n     int32 // a fetch run's words, a data reference's bytes
	pid   uint16
	cpu   uint8
	flags uint8
}

const (
	evKernel = 1 << iota
	evData
	evWrite
)

// fetchTest is the flag test a lane of each stream applies to an event: it
// is a fetch run of the stream when flags&mask == want.
var fetchTest = [numStreams]struct{ mask, want uint8 }{
	appStream:  {evData | evKernel, 0},
	kernStream: {evData | evKernel, evKernel},
	combStream: {evData, 0},
}

const (
	// chunkEvents is the events handed to the lanes at a time: 64 KB, small
	// enough to stay in a core's cache while every lane reads it, large
	// enough that the hand-off is paid once per four thousand events.
	chunkEvents = 4096
	// logChunks is the fixed set of chunks a run's log recycles: what bounds
	// the log's memory, and how far the machine may run ahead of the slowest
	// lane before it blocks.
	logChunks = 4
)

type chunk struct {
	ev   [chunkEvents]event
	n    int
	left atomic.Int32 // lanes that have not finished reading it
}

// eventLog is the one sink a measured run attaches: it appends every fetch
// run and data reference of the measured phase to a chunk, in machine order,
// and hands each full chunk to one lane per attached sink group. The lanes
// only read a chunk; the last to finish returns it to the free set.
type eventLog struct {
	cpus    int
	bat     *battery
	pool    *sync.Pool // where bat goes back to
	cur     *chunk
	free    chan *chunk
	lanes   []*lane
	running sync.WaitGroup
}

// battery is what a measured run attaches for its shape — the simulators of
// each group of its set, in sinkGroups order, and the chunks of its log —
// kept for the next run of the same shape.
type battery struct {
	groups []sims
	chunks [logChunks]*chunk
}

// shape is what a battery is built for: the CPUs it keeps apart and the set
// of groups it holds.
type shape struct {
	cpus int
	set  SinkSet
}

// batteries holds finished batteries for reuse, one sync.Pool per shape: a
// run takes one (or builds one) and, once it has succeeded and its Measure
// holds every result, resets it and puts it back. A pool keeps what it holds
// only until the GC empties it, so a process that stops measuring keeps no
// battery.
var batteries sync.Map // shape → *sync.Pool

// poolOf returns the pool of batteries of shape k.
func poolOf(k shape) *sync.Pool {
	if p, ok := batteries.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := batteries.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// lane is one sink group's goroutine: it sees every chunk in the order the
// machine filled them and feeds the group's own simulators the fetch runs of
// its stream — and, where the group has a data sink, the data references
// between them exactly as issued.
type lane struct {
	group string
	mask  uint8
	want  uint8
	fetch []trace.Sink
	// fams and l1is are fetch again, typed, when every sink of the group is
	// a cache family or every one a cache: feed calls those directly on a
	// run's bare coordinates, not through the interface.
	fams []*cache.Family
	l1is []*cache.ICache
	data trace.DataSink
	in   chan *chunk
	err  error // the group's first panic; read once the lane has exited
}

// attachBattery readies the groups of set for the machine cfg describes —
// the one place the battery is sized, from cfg.CPUs — taking the battery of
// an earlier run of the same shape if one is pooled and building what it
// lacks, starts a lane for each group, and attaches their log as cfg's only
// sink. Once the caller has closed the log, file files the groups' results.
// The empty set attaches nothing and returns a nil log.
func attachBattery(cfg *machine.Config, set SinkSet) *eventLog {
	groups := 0
	for _, g := range sinkGroups {
		if g.in&set != 0 {
			groups++
		}
	}
	if groups == 0 {
		return nil
	}
	l := &eventLog{cpus: cfg.CPUs, pool: poolOf(shape{cfg.CPUs, set})}
	l.bat, _ = l.pool.Get().(*battery)
	if l.bat == nil {
		l.bat = &battery{groups: make([]sims, groups)}
		for i := range l.bat.chunks {
			l.bat.chunks[i] = new(chunk)
		}
	}
	anyData := false
	i := 0
	for _, g := range sinkGroups {
		if g.in&set == 0 {
			continue
		}
		s := &l.bat.groups[i]
		i++
		if s.collect == nil { // a new battery, or a group built for every run
			*s = g.build(cfg.CPUs, set)
		}
		t := fetchTest[g.stream]
		l.lanes = append(l.lanes, &lane{
			group: g.name, mask: t.mask, want: t.want, fetch: s.fetch, data: s.data,
			fams: every[*cache.Family](s.fetch), l1is: every[*cache.ICache](s.fetch),
			in: make(chan *chunk, logChunks), // every chunk in circulation fits: a hand-off never blocks
		})
		anyData = anyData || s.data != nil
	}
	l.free = make(chan *chunk, logChunks) // likewise: a lane never blocks returning one
	for _, c := range l.bat.chunks[1:] {
		l.free <- c
	}
	l.cur = l.bat.chunks[0]
	l.cur.n = 0
	for _, ln := range l.lanes {
		l.running.Add(1)
		go func() {
			defer l.running.Done()
			for c := range ln.in {
				// A lane that failed keeps taking chunks, so that the
				// machine never blocks on one nobody will return.
				if ln.err == nil {
					ln.err = ln.feed(c.ev[:c.n])
				}
				if c.left.Add(-1) == 0 {
					l.free <- c
				}
			}
		}()
	}
	cfg.Sinks = append(cfg.Sinks, l)
	if anyData {
		cfg.DataSinks = append(cfg.DataSinks, l)
	}
	return l
}

// file runs every group's collector on m, then resets the battery and puts
// it back in its pool: the simulators are the next run's only once m holds
// all they produced. Call it only after a closed log's run succeeded; a
// failed run drops its battery, whatever state its lanes left it in. A nil
// log (the empty set) files nothing.
func (l *eventLog) file(m *Measure) {
	if l == nil {
		return
	}
	for _, s := range l.bat.groups {
		s.collect(m)
	}
	for i, s := range l.bat.groups {
		if s.reset == nil {
			l.bat.groups[i] = sims{} // m holds them: built again next run
		} else {
			s.reset()
		}
	}
	l.pool.Put(l.bat)
}

// Fetch implements trace.Sink.
func (l *eventLog) Fetch(r trace.FetchRun) {
	var flags uint8
	if r.Kernel {
		flags = evKernel
	}
	l.put(event{r.Addr, r.Words, r.PID, r.CPU, flags})
}

// Data implements trace.DataSink.
func (l *eventLog) Data(r trace.DataRef) {
	flags := uint8(evData)
	if r.Kernel {
		flags |= evKernel
	}
	if r.Write {
		flags |= evWrite
	}
	l.put(event{r.Addr, r.Bytes, r.PID, r.CPU, flags})
}

// put appends e, on the machine's goroutine. An event from a CPU beyond the
// machine's means the battery was not sized from the machine it is attached
// to: it panics here, where the machine reports it as a Run error, and not on
// a lane, where a clamp would fold it into another CPU's statistics.
func (l *eventLog) put(e event) {
	if int(e.cpu) >= l.cpus {
		panic(fmt.Sprintf("expt: event from cpu %d in the log of a %d-cpu battery", e.cpu, l.cpus))
	}
	c := l.cur
	c.ev[c.n] = e
	c.n++
	if c.n == chunkEvents {
		l.hand()
		l.cur = <-l.free // blocks while the lanes hold every other chunk
		l.cur.n = 0
	}
}

// hand gives the current chunk to every lane.
func (l *eventLog) hand() {
	l.cur.left.Store(int32(len(l.lanes)))
	for _, ln := range l.lanes {
		ln.in <- l.cur
	}
}

// close hands the lanes the last, partial chunk, waits for every lane to
// exit and returns the first group's failure, if one panicked. A nil log
// (the empty set) has nothing to close.
func (l *eventLog) close() error {
	if l == nil {
		return nil
	}
	if l.cur.n > 0 {
		l.hand()
	}
	for _, ln := range l.lanes {
		close(ln.in)
	}
	l.running.Wait()
	for _, ln := range l.lanes {
		if ln.err != nil {
			return ln.err
		}
	}
	return nil
}

// feed runs the group's simulators over one chunk. A simulator's panic is
// the lane's error, not the process's end.
func (ln *lane) feed(evs []event) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sink group %s panicked: %v", ln.group, p)
		}
	}()
	for i := range evs {
		e := &evs[i]
		kernel := e.flags&evKernel != 0
		switch {
		case e.flags&ln.mask != ln.want:
			if e.flags&evData != 0 && ln.data != nil {
				ln.data.Data(trace.DataRef{Addr: e.addr, Bytes: e.n, CPU: e.cpu, PID: e.pid, Write: e.flags&evWrite != 0, Kernel: kernel})
			}
		case ln.fams != nil:
			ln.fams[e.cpu].FetchWords(e.addr, e.n, kernel)
		case ln.l1is != nil:
			ln.l1is[e.cpu].FetchWords(e.addr, e.n, kernel)
		default:
			ln.fetch[e.cpu].Fetch(trace.FetchRun{Addr: e.addr, Words: e.n, CPU: e.cpu, PID: e.pid, Kernel: kernel})
		}
	}
	return nil
}

// every returns sinks as Ts when every one of them is a T, and nil otherwise.
func every[T trace.Sink](sinks []trace.Sink) []T {
	out := make([]T, len(sinks))
	for i, s := range sinks {
		t, ok := s.(T)
		if !ok {
			return nil
		}
		out[i] = t
	}
	return out
}
