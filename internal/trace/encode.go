package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace file format: a magic header followed by records. Each record
// is its kind, its CPU and a flags byte, then varints: a fetch run's address,
// delta-encoded per CPU (which keeps OLTP traces compact: most transfers are
// short), and its words; a data reference's address and bytes.
const traceMagic = "CLTRACE2"

const (
	recFetch = 0x01
	recData  = 0x02
)

// Writer streams fetch runs and data refs to a binary trace file that a
// Reader replays. Its one client outside the tests is bench/probes.go, which
// times encoding and replay.
type Writer struct {
	w       *bufio.Writer
	lastEnd [MaxCPUs]uint64
	err     error
	buf     []byte
}

// NewWriter writes a trace header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, 0, 64)}, nil
}

// Fetch implements Sink.
func (tw *Writer) Fetch(r FetchRun) {
	if tw.err != nil {
		return
	}
	delta := int64(r.Addr) - int64(tw.lastEnd[r.CPU])
	tw.lastEnd[r.CPU] = r.End()
	tw.buf = append(tw.buf[:0], recFetch, r.CPU, flag(r.Kernel))
	tw.buf = binary.AppendVarint(tw.buf, delta)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(r.Words))
	_, tw.err = tw.w.Write(tw.buf)
}

// Data implements DataSink.
func (tw *Writer) Data(r DataRef) {
	if tw.err != nil {
		return
	}
	tw.buf = append(tw.buf[:0], recData, r.CPU, flag(r.Write))
	tw.buf = binary.AppendUvarint(tw.buf, r.Addr)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(r.Bytes))
	_, tw.err = tw.w.Write(tw.buf)
}

// flag is a record's flags byte: a fetch run's kernel bit, a data
// reference's write bit.
func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Close flushes the trace.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// Reader replays a binary trace into a Sink and optional DataSink.
type Reader struct {
	r       *bufio.Reader
	lastEnd [MaxCPUs]uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != traceMagic {
		return nil, errors.New("trace: bad magic")
	}
	return &Reader{r: br}, nil
}

// Replay streams every record to the sinks until EOF. dataSink may be nil.
func (tr *Reader) Replay(sink Sink, dataSink DataSink) error {
	for {
		kind, err := tr.r.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		cpu, err := tr.r.ReadByte()
		if err != nil {
			return err
		}
		if cpu >= MaxCPUs {
			return fmt.Errorf("trace: cpu %d out of range", cpu)
		}
		flags, err := tr.r.ReadByte()
		if err != nil {
			return err
		}
		switch kind {
		case recFetch:
			delta, err := binary.ReadVarint(tr.r)
			if err != nil {
				return err
			}
			words, err := readCount(tr.r, "fetch", "words")
			if err != nil {
				return err
			}
			r := FetchRun{
				Addr:   uint64(int64(tr.lastEnd[cpu]) + delta),
				Words:  words,
				CPU:    cpu,
				Kernel: flags&1 != 0,
			}
			tr.lastEnd[cpu] = r.End()
			if sink != nil {
				sink.Fetch(r)
			}
		case recData:
			addr, err := binary.ReadUvarint(tr.r)
			if err != nil {
				return err
			}
			n, err := readCount(tr.r, "data", "bytes")
			if err != nil {
				return err
			}
			if dataSink != nil {
				dataSink.Data(DataRef{Addr: addr, Bytes: n, CPU: cpu, Write: flags&1 != 0})
			}
		default:
			return fmt.Errorf("trace: unknown record kind %#x", kind)
		}
	}
}

// readCount reads a record's word or byte count, which a FetchRun or DataRef
// holds only in [1, MaxInt32].
func readCount(r io.ByteReader, kind, unit string) (int32, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n < 1 || n > math.MaxInt32 {
		return 0, fmt.Errorf("trace: %s record with %d %s", kind, n, unit)
	}
	return int32(n), nil
}
