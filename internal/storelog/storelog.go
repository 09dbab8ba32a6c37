// Package storelog is the durable core.Store backend: an append-only
// record log of table-change events (insert/retract/expire/annotation)
// with periodic state snapshots at sealed quiescence points.
//
// Layout (one file, <dir>/store.log) — length-prefixed records in the
// style of docs/WIRE.md frames:
//
//	u32 LE payload length | payload | u32 LE CRC32-IEEE(payload)
//
// payload[0] is the record kind: 0–3 are the core.EventKind values
// (insert, retract, expire, prov), 4 is a seal snapshot. Event bodies are
// node string, tuple, prov string (data codec), then the logical clock as
// 8 LE bytes (IEEE-754). A seal body is the writer's full materialized
// core.StoreState in sorted order, so recovery replays only the tail
// after the last seal.
//
// Appends are handed to a writer goroutine (evaluation never blocks on
// the disk); Flush is the durability barrier the driver runs at every
// quiescence point. Recovery scans the log, uses the last valid seal
// snapshot, replays the events after it, and truncates at the first
// invalid record — a torn tail from a crash mid-write loses at most the
// events after the last Flush, and TestStoreLogMatchesMemory pins the
// replayed state bit-identical to the in-memory run.
package storelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"provnet/internal/core"
	"provnet/internal/data"
)

// FileName is the log file inside the store directory.
const FileName = "store.log"

// defaultSealEvery is the snapshot cadence applied when Options.SealEvery
// is zero: a Seal() writes a snapshot record only if at least this many
// events were appended since the last snapshot, amortizing snapshot cost
// over churny runs while keeping recovery replay short.
const defaultSealEvery = 1024

// maxRecord bounds a single record payload; longer length prefixes are
// treated as corruption (torn tail) during recovery.
const maxRecord = 1 << 30

const recSeal = 4 // record kind after the core.EventKind values

// Options configures a Log.
type Options struct {
	// SealEvery is the minimum number of events between snapshot records
	// (0 = 1024, <0 = never snapshot: recovery replays the whole log).
	SealEvery int
	// NoSync skips the fsync in Flush (tests; durability is then only
	// as good as the OS page cache).
	NoSync bool
}

// Log is the durable Store. Create one with Open.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []core.StoreEvent
	sealReq  bool
	flushers []chan error
	closed   bool
	err      error // sticky: first write failure
	pending  int   // queued + in-flight events

	// Writer-goroutine-owned (no lock): the file, its buffer, the
	// materialized state snapshots are cut from, and the event count
	// since the last snapshot.
	f         *os.File
	w         *bufio.Writer
	state     *core.StoreState
	sinceSeal int

	done chan struct{}
}

// Log implements core.Store.
var _ core.Store = (*Log)(nil)

// Open opens (or creates) the store directory and starts the writer. An
// existing log is recovered first: the valid prefix is kept — a torn
// tail from a crash is truncated — and appending resumes from the
// recovered state.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SealEvery == 0 {
		opts.SealEvery = defaultSealEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, FileName)
	state, stats, err := recoverFile(path)
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
		dir:       dir,
		opts:      opts,
		f:         f,
		w:         bufio.NewWriter(f),
		state:     state,
		sinceSeal: stats.TailEvents,
		done:      make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l, nil
}

// Dir returns the store directory.
func (l *Log) Dir() string { return l.dir }

// Append enqueues one event for the writer goroutine.
func (l *Log) Append(ev core.StoreEvent) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storelog: closed")
	}
	if l.err != nil {
		return l.err
	}
	l.queue = append(l.queue, ev)
	l.pending++
	l.cond.Signal()
	return nil
}

// Seal requests a snapshot record at this quiescence point; the writer
// skips it unless SealEvery events accumulated since the last snapshot.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storelog: closed")
	}
	if l.err != nil {
		return l.err
	}
	l.sealReq = true
	l.cond.Signal()
	return nil
}

// Flush blocks until every event appended before the call is written and
// synced to disk.
func (l *Log) Flush() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("storelog: closed")
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	l.flushers = append(l.flushers, ch)
	l.cond.Signal()
	l.mu.Unlock()
	return <-ch
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
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// run is the writer goroutine: drain the queue, cut requested snapshots,
// answer flush barriers, and exit on close.
func (l *Log) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.sealReq && len(l.flushers) == 0 && !l.closed {
			l.cond.Wait()
		}
		evs := l.queue
		l.queue = nil
		seal := l.sealReq
		l.sealReq = false
		flushers := l.flushers
		l.flushers = nil
		closed := l.closed
		l.mu.Unlock()

		var err error
		for _, ev := range evs {
			if err = l.writeEvent(ev); err != nil {
				break
			}
		}
		if err == nil && seal {
			err = l.writeSeal()
		}
		if err == nil && (len(flushers) > 0 || closed) {
			err = l.sync()
		}
		l.mu.Lock()
		if err != nil && l.err == nil {
			l.err = err
		}
		l.pending -= len(evs)
		sticky := l.err
		l.mu.Unlock()
		for _, ch := range flushers {
			ch <- sticky
		}
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

// writeRecord frames payload as len|payload|crc.
func (l *Log) writeRecord(payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := l.w.Write(crc[:])
	return err
}

func (l *Log) writeEvent(ev core.StoreEvent) error {
	l.state.Apply(ev)
	l.sinceSeal++
	payload := appendEvent([]byte{byte(ev.Kind)}, ev)
	return l.writeRecord(payload)
}

func (l *Log) writeSeal() error {
	if l.opts.SealEvery < 0 || l.sinceSeal < l.opts.SealEvery {
		return nil
	}
	l.sinceSeal = 0
	return l.writeRecord(appendState([]byte{recSeal}, l.state))
}

// --- record encoding ---

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func decodeFloat(b []byte) (float64, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("storelog: short float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), 8, nil
}

func appendEvent(b []byte, ev core.StoreEvent) []byte {
	b = data.AppendString(b, ev.Node)
	b = data.AppendTuple(b, ev.Tuple)
	b = data.AppendString(b, ev.Prov)
	return appendFloat(b, ev.At)
}

// decodeEvent decodes an event payload after its kind byte.
func decodeEvent(kind core.EventKind, b []byte) (core.StoreEvent, error) {
	ev := core.StoreEvent{Kind: kind}
	node, n, err := data.DecodeString(b)
	if err != nil {
		return ev, err
	}
	ev.Node = node
	tu, m, err := data.DecodeTuple(b[n:])
	if err != nil {
		return ev, err
	}
	n += m
	prov, m, err := data.DecodeString(b[n:])
	if err != nil {
		return ev, err
	}
	n += m
	ev.Tuple, ev.Prov = tu, prov
	at, m, err := decodeFloat(b[n:])
	if err != nil {
		return ev, err
	}
	n += m
	if n != len(b) {
		return ev, fmt.Errorf("storelog: %d trailing event bytes", len(b)-n)
	}
	ev.At = at
	return ev, nil
}

func appendRow(b []byte, row core.StoredRow, stale bool) []byte {
	b = data.AppendTuple(b, row.Tuple)
	b = data.AppendString(b, row.Prov)
	b = appendFloat(b, row.At)
	if stale {
		b = appendFloat(b, row.StaleAt)
	}
	return b
}

func decodeRow(b []byte, stale bool) (core.StoredRow, int, error) {
	var row core.StoredRow
	tu, n, err := data.DecodeTuple(b)
	if err != nil {
		return row, 0, err
	}
	prov, m, err := data.DecodeString(b[n:])
	if err != nil {
		return row, 0, err
	}
	n += m
	at, m, err := decodeFloat(b[n:])
	if err != nil {
		return row, 0, err
	}
	n += m
	row = core.StoredRow{Tuple: tu, Prov: prov, At: at}
	if stale {
		sat, m, err := decodeFloat(b[n:])
		if err != nil {
			return row, 0, err
		}
		n += m
		row.StaleAt = sat
	}
	return row, n, nil
}

// appendState encodes a full StoreState in sorted order (node names, then
// row keys), keeping snapshot bytes deterministic for identical states.
func appendState(b []byte, s *core.StoreState) []byte {
	b = appendFloat(b, s.Clock)
	names := make([]string, 0, len(s.Nodes))
	for name := range s.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		ns := s.Nodes[name]
		b = data.AppendString(b, name)
		b = appendRows(b, ns.Rows, false)
		b = appendRows(b, ns.Stale, true)
	}
	return b
}

func appendRows(b []byte, rows map[string]core.StoredRow, stale bool) []byte {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendRow(b, rows[k], stale)
	}
	return b
}

func decodeState(b []byte) (*core.StoreState, error) {
	s := core.NewStoreState()
	clock, n, err := decodeFloat(b)
	if err != nil {
		return nil, err
	}
	s.Clock = clock
	nn, m := binary.Uvarint(b[n:])
	if m <= 0 || nn > uint64(len(b)) {
		return nil, fmt.Errorf("storelog: corrupt snapshot node count")
	}
	n += m
	for i := uint64(0); i < nn; i++ {
		name, m, err := data.DecodeString(b[n:])
		if err != nil {
			return nil, err
		}
		n += m
		ns := &core.NodeState{Rows: map[string]core.StoredRow{}, Stale: map[string]core.StoredRow{}}
		for _, stale := range []bool{false, true} {
			cnt, m := binary.Uvarint(b[n:])
			if m <= 0 || cnt > uint64(len(b)) {
				return nil, fmt.Errorf("storelog: corrupt snapshot row count")
			}
			n += m
			dst := ns.Rows
			if stale {
				dst = ns.Stale
			}
			for j := uint64(0); j < cnt; j++ {
				row, m, err := decodeRow(b[n:], stale)
				if err != nil {
					return nil, err
				}
				n += m
				dst[row.Tuple.Key()] = row //provlint:allow keystring snapshot rows replay into the store-state map, which is keyed on the canonical bytes by contract
			}
		}
		s.Nodes[name] = ns
	}
	if n != len(b) {
		return nil, fmt.Errorf("storelog: %d trailing snapshot bytes", len(b)-n)
	}
	return s, nil
}

// --- recovery ---

// RecoverStats describes what a recovery scan found.
type RecoverStats struct {
	// Records is the number of valid records in the kept prefix.
	Records int
	// Events is the number of event records (Records minus seals).
	Events int
	// Seals counts snapshot records.
	Seals int
	// SnapshotUsed reports whether replay started from a seal snapshot
	// (false = the whole event log was replayed).
	SnapshotUsed bool
	// TailEvents is the number of events replayed after the last
	// snapshot (all of them when SnapshotUsed is false).
	TailEvents int
	// ValidBytes is the length of the valid prefix; TornBytes is what a
	// crash left after it (truncated by Open, ignored by Recover).
	ValidBytes int64
	TornBytes  int64
}

// Recover reads the log under dir read-only and replays it into a
// StoreState: the last valid seal snapshot plus the events after it. A
// missing file recovers to the empty state. Corruption mid-file stops
// the scan there (crash-torn tail).
func Recover(dir string) (*core.StoreState, RecoverStats, error) {
	return recoverFile(filepath.Join(dir, FileName))
}

func recoverFile(path string) (*core.StoreState, RecoverStats, error) {
	var stats RecoverStats
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return core.NewStoreState(), stats, nil
	}
	if err != nil {
		return nil, stats, err
	}

	// Scan the valid prefix, remembering the last intact snapshot and
	// the events after it.
	var base *core.StoreState
	var tail []core.StoreEvent
	off := int64(0)
	for {
		payload, next, ok := readRecord(raw, off)
		if !ok {
			break
		}
		kind := payload[0]
		switch {
		case kind == recSeal:
			s, err := decodeState(payload[1:])
			if err != nil {
				// Structurally corrupt despite a good CRC: treat as torn.
				goto done
			}
			base, tail = s, nil
			stats.Seals++
		case kind <= byte(core.EvProv):
			ev, err := decodeEvent(core.EventKind(kind), payload[1:])
			if err != nil {
				goto done
			}
			tail = append(tail, ev)
			stats.Events++
		default:
			goto done // unknown record kind: stop before it
		}
		stats.Records++
		off = next
	}
done:
	stats.ValidBytes = off
	stats.TornBytes = int64(len(raw)) - off
	stats.SnapshotUsed = base != nil
	stats.TailEvents = len(tail)
	state := base
	if state == nil {
		state = core.NewStoreState()
	}
	for _, ev := range tail {
		state.Apply(ev)
	}
	return state, stats, nil
}

// readRecord parses one len|payload|crc record at off, reporting the
// payload, the next offset, and whether the record was intact.
func readRecord(raw []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+4 > int64(len(raw)) {
		return nil, off, false
	}
	n := int64(binary.LittleEndian.Uint32(raw[off:]))
	if n < 1 || n > maxRecord || off+4+n+4 > int64(len(raw)) {
		return nil, off, false
	}
	payload = raw[off+4 : off+4+n]
	want := binary.LittleEndian.Uint32(raw[off+4+n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, off, false
	}
	return payload, off + 4 + n + 4, true
}
