package storelog_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"provnet/internal/core"
	"provnet/internal/storelog"
)

// writeLog appends evs to a fresh log in a temp dir and returns the
// file's bytes.
func writeLog(t testing.TB, evs ...core.StoreEvent) []byte {
	t.Helper()
	dir := t.TempDir()
	l, err := storelog.Open(dir, storelog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, storelog.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// record frames payload the way the log does: len|payload|crc.
func record(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func prefixEvents() []core.StoreEvent {
	return []core.StoreEvent{
		{Kind: core.EvInsert, Node: "a", Tuple: testTuple("f1"), Prov: "<a>", At: 1},
		{Kind: core.EvInsert, Node: "a", Tuple: testTuple("f2"), At: 1},
		{Kind: core.EvRetract, Node: "a", Tuple: testTuple("f1"), At: 2},
	}
}

// TestOpenRefusesUndecodableRecord: a record with a valid CRC is not a
// torn tail, whatever its kind or body. Open and Recover refuse it, name
// its offset, and leave the file as it was — neither a snapshot record
// from an older writer (kind 4) nor an unknown kind is truncated away.
func TestOpenRefusesUndecodableRecord(t *testing.T) {
	prefix := writeLog(t, prefixEvents()...)
	event := writeLog(t, core.StoreEvent{Kind: core.EvInsert, Node: "b", Tuple: testTuple("f3"), At: 3})
	for _, kind := range []byte{4, 9} {
		body := append([]byte{kind}, event[5:len(event)-4]...) // a well-formed event body
		dir := t.TempDir()
		path := filepath.Join(dir, storelog.FileName)
		raw := append(append(append([]byte(nil), prefix...), record(body)...), event...)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := storelog.Open(dir, storelog.Options{NoSync: true}); err == nil {
			l.Close()
			t.Errorf("kind %d: Open accepted a well-formed record it cannot decode", kind)
		} else if want := "offset " + strconv.Itoa(len(prefix)); !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: Open error %q does not name %q", kind, err, want)
		}
		if _, _, err := storelog.Recover(dir); err == nil {
			t.Errorf("kind %d: Recover accepted a well-formed record it cannot decode", kind)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("kind %d: refused log changed: %d bytes, was %d", kind, len(got), len(raw))
		}
	}
}

// FuzzRecover appends arbitrary bytes after a valid event prefix.
// Recovery must not panic, must account for every byte as valid or torn,
// and must be a fixpoint: recovering the file truncated to its valid
// prefix gives the same state and no torn bytes.
func FuzzRecover(f *testing.F) {
	prefix := writeLog(f, prefixEvents()...)
	event := writeLog(f, core.StoreEvent{Kind: core.EvExpire, Node: "a", Tuple: testTuple("f2"), At: 4})
	f.Add([]byte{})
	f.Add([]byte{0x40, 0, 0, 0, byte(core.EvInsert), 'x', 'y'})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(event)
	f.Add(append(append([]byte(nil), event...), 0xff, 0xff))
	f.Add(record([]byte{byte(core.EvProv), 1}))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, storelog.FileName)
		raw := append(append([]byte(nil), prefix...), tail...)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		state, stats, err := storelog.Recover(dir)
		if err != nil {
			return // a well-formed record that does not decode (TestOpenRefusesUndecodableRecord)
		}
		if stats.ValidBytes < int64(len(prefix)) || stats.Events < len(prefixEvents()) {
			t.Fatalf("valid prefix lost: %+v, prefix %d bytes", stats, len(prefix))
		}
		if stats.ValidBytes+stats.TornBytes != int64(len(raw)) {
			t.Fatalf("valid %d + torn %d != file size %d", stats.ValidBytes, stats.TornBytes, len(raw))
		}
		if err := os.Truncate(path, stats.ValidBytes); err != nil {
			t.Fatal(err)
		}
		again, stats2, err := storelog.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if stats2.TornBytes != 0 || stats2.Events != stats.Events || stats2.ValidBytes != stats.ValidBytes {
			t.Fatalf("truncated log recovers to %+v, want %+v with no torn bytes", stats2, stats)
		}
		if got, want := again.Dump(), state.Dump(); got != want {
			t.Fatalf("truncated log recovers differently:\n%s\nwant:\n%s", got, want)
		}
	})
}
