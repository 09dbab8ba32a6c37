// Package storelog is the durable core.Store backend: an append-only
// record log of table-change events (insert/retract/expire/annotation).
// The log is its events; there are no snapshots.
//
// Layout (one file, <dir>/store.log) — length-prefixed records in the
// style of docs/WIRE.md frames:
//
//	u32 LE payload length | payload | u32 LE CRC32-IEEE(payload)
//
// payload[0] is the record kind, one of the core.EventKind values 0–3
// (insert, retract, expire, prov). The body is node string, tuple, prov
// string (data codec), then the logical clock as 8 LE bytes (IEEE-754).
//
// Appends are handed to a writer goroutine (evaluation never blocks on
// the disk); Flush is the durability barrier the driver runs at every
// quiescence point. Recovery streams the log once and replays every
// event of its valid prefix. Only a record cut short or failing its CRC
// ends the prefix — a torn tail from a crash mid-write, which loses at
// most the events after the last Flush and which Open truncates. A
// well-formed record that does not decode is refused with an error, never
// truncated. TestStoreLogMatchesMemory pins the replayed state
// bit-identical to the in-memory run.
package storelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"provnet/internal/core"
	"provnet/internal/data"
)

// FileName is the log file inside the store directory.
const FileName = "store.log"

var errClosed = errors.New("storelog: closed")

// Options configures a Log.
type Options struct {
	// NoSync skips the fsync in Flush (tests; durability is then only
	// as good as the OS page cache).
	NoSync bool
}

// Log is the durable Store. Create one with Open.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	// queue collects appends while the writer encodes the batch it took
	// before; the writer hands that batch's cleared array back as spare,
	// and the next take makes it the queue, so appends stop regrowing
	// a queue from nil.
	queue []core.StoreEvent
	spare []core.StoreEvent
	// Flush barriers are generations: Flush takes the next request
	// number and waits on cond until flushed reaches it. The writer
	// answers every request it took with a batch at once; it alone
	// writes flushed, so it reads it without the lock.
	requested, flushed uint64
	closed             bool
	err                error  // sticky: first write failure
	errAfter           uint64 // flushed when err was set: later requests see it
	pending            int    // queued + in-flight events

	// Writer-goroutine-owned (no lock): the file, its buffer, and the
	// record being encoded.
	f   *os.File
	w   *bufio.Writer
	rec []byte

	done chan struct{}
}

// Log implements core.Store.
var _ core.Store = (*Log)(nil)

// Open opens (or creates) the store directory and starts the writer. An
// existing log is scanned first: a torn tail from a crash is truncated
// and appending resumes after the valid prefix. A well-formed record the
// scan cannot decode fails Open and leaves the file untouched.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, FileName)
	stats, err := scan(path, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Drop the torn tail so resumed appends extend the valid prefix.
	if err := f.Truncate(stats.ValidBytes); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(stats.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		f:    f,
		w:    bufio.NewWriter(f),
		done: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l, nil
}

// Dir returns the store directory.
func (l *Log) Dir() string { return l.dir }

// usable reports why the log takes no more calls: it is closed, or a
// write failed. Callers hold mu.
func (l *Log) usable() error {
	if l.closed {
		return errClosed
	}
	return l.err
}

// Append enqueues one event for the writer goroutine.
func (l *Log) Append(ev core.StoreEvent) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	l.queue = append(l.queue, ev)
	l.pending++
	l.cond.Broadcast()
	return nil
}

// Seal marks a quiescence point. The log is its events, so there is
// nothing to checkpoint: Seal only reports a closed log or a failed write.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.usable()
}

// Flush blocks until every event appended before the call is written and
// synced to disk.
func (l *Log) Flush() error {
	l.mu.Lock()
	if err := l.usable(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.requested++
	gen := l.requested
	l.cond.Broadcast()
	for l.flushed < gen {
		l.cond.Wait()
	}
	defer l.mu.Unlock()
	if gen > l.errAfter {
		return l.err
	}
	return nil
}

// Pending reports events not yet handed to the OS.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Close flushes, stops the writer, and closes the file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// run is the writer goroutine: drain the queue, answer flush barriers,
// and exit on close.
func (l *Log) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && l.requested == l.flushed && !l.closed {
			l.cond.Wait()
		}
		evs := l.queue
		l.queue = l.spare
		l.spare = nil
		requested := l.requested
		closed := l.closed
		l.mu.Unlock()

		var err error
		for _, ev := range evs {
			if err = l.writeEvent(ev); err != nil {
				break
			}
		}
		if err == nil && (requested > l.flushed || closed) {
			err = l.sync()
		}
		l.mu.Lock()
		if err != nil && l.err == nil {
			l.err = err
			l.errAfter = l.flushed
		}
		l.pending -= len(evs)
		clear(evs) // the spare keeps no tuple of the batch written
		l.spare = evs[:0]
		if requested > l.flushed {
			l.flushed = requested
			l.cond.Broadcast()
		}
		l.mu.Unlock()
		if closed {
			l.w.Flush()
			l.f.Close()
			return
		}
	}
}

func (l *Log) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.opts.NoSync {
		return nil
	}
	return l.f.Sync()
}

// writeEvent frames one event as len|payload|crc.
func (l *Log) writeEvent(ev core.StoreEvent) error {
	l.rec = appendEvent(append(l.rec[:0], 0, 0, 0, 0), ev)
	payload := l.rec[4:]
	binary.LittleEndian.PutUint32(l.rec, uint32(len(payload)))
	l.rec = binary.LittleEndian.AppendUint32(l.rec, crc32.ChecksumIEEE(payload))
	_, err := l.w.Write(l.rec)
	return err
}

// --- record encoding ---

// appendEvent appends an event payload: its kind byte, then its body.
func appendEvent(b []byte, ev core.StoreEvent) []byte {
	b = append(b, byte(ev.Kind))
	b = data.AppendString(b, ev.Node)
	b = data.AppendTuple(b, ev.Tuple)
	b = data.AppendString(b, ev.Prov)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.At))
}

// decodeEvent decodes an event payload, kind byte first.
func decodeEvent(b []byte) (core.StoreEvent, error) {
	ev := core.StoreEvent{Kind: core.EventKind(b[0])}
	if ev.Kind > core.EvProv {
		return ev, errors.New("unknown record kind")
	}
	n := 1
	var m int
	var err error
	if ev.Node, m, err = data.DecodeString(b[n:]); err != nil {
		return ev, err
	}
	n += m
	if ev.Tuple, m, err = data.DecodeTuple(b[n:]); err != nil {
		return ev, err
	}
	n += m
	if ev.Prov, m, err = data.DecodeString(b[n:]); err != nil {
		return ev, err
	}
	n += m
	if len(b)-n != 8 {
		return ev, fmt.Errorf("%d bytes where the 8-byte clock belongs", len(b)-n)
	}
	ev.At = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
	return ev, nil
}

// --- recovery ---

// RecoverStats describes what a recovery scan found.
type RecoverStats struct {
	// Events is the number of event records in the valid prefix.
	Events int
	// ValidBytes is the length of the valid prefix; TornBytes is what a
	// crash left after it (truncated by Open, ignored by Recover).
	ValidBytes int64
	TornBytes  int64
}

// Recover reads the log under dir read-only and replays every event of
// its valid prefix into a StoreState. A missing file recovers to the
// empty state; a torn tail is skipped; a well-formed record that does not
// decode is an error.
func Recover(dir string) (*core.StoreState, RecoverStats, error) {
	state := core.NewStoreState()
	stats, err := scan(filepath.Join(dir, FileName), state)
	if err != nil {
		return nil, stats, err
	}
	return state, stats, nil
}

// scan streams the log at path record by record and applies each event
// to state (nil: validate only). The valid prefix ends at the first
// record cut short or failing its CRC. Each length prefix is bounded by
// the bytes left in the file before anything is allocated for it.
func scan(path string, state *core.StoreState) (RecoverStats, error) {
	var stats RecoverStats
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return stats, nil
	}
	if err != nil {
		return stats, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return stats, err
	}
	size := fi.Size()
	r := bufio.NewReader(io.LimitReader(f, size))
	var hdr [4]byte
	var buf []byte
	off := int64(0)
	for size-off >= 4 {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return stats, fmt.Errorf("storelog: read %s at offset %d: %w", path, off, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n < 1 || 4+n+4 > size-off {
			break // no room for a kind byte, or the record is cut short
		}
		if int64(cap(buf)) < n+4 {
			buf = make([]byte, n+4)
		}
		rec := buf[:n+4]
		if _, err := io.ReadFull(r, rec); err != nil {
			return stats, fmt.Errorf("storelog: read %s at offset %d: %w", path, off, err)
		}
		payload := rec[:n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rec[n:]) {
			break
		}
		ev, err := decodeEvent(payload)
		if err != nil {
			return stats, fmt.Errorf("storelog: %s: record at offset %d (kind %d) is well-formed but does not decode: %w", path, off, payload[0], err)
		}
		if state != nil {
			state.Apply(ev)
		}
		stats.Events++
		off += 4 + n + 4
	}
	stats.ValidBytes = off
	stats.TornBytes = size - off
	return stats, nil
}
