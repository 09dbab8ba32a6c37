package storelog_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"provnet/internal/core"
	"provnet/internal/data"
	"provnet/internal/storelog"
	"provnet/internal/topo"
)

func testTuple(name string) data.Tuple { return data.NewTuple("fact", data.Str(name)) }

func TestMain(m *testing.M) {
	os.Setenv("GODEBUG", "rsa1024min=0") // 512-bit test keys, like the package TestMains
	os.Exit(m.Run())
}

// churnRun drives the §6 Best-Path workload with the given Store through
// the live driver — converge, cut two links, restore one, re-converge —
// and returns the final published ReadView dump. The same deterministic
// schedule every time, so every Store implementation observes the same
// per-node event streams.
func churnRun(t *testing.T, st core.Store) (viewDump string) {
	t.Helper()
	g := topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 3, MaxCost: 10, Seed: 7})
	cfg := core.VariantConfig(core.VariantSeNDlogProv, core.BestPath)
	cfg.Graph = g
	cfg.KeyBits = 512
	cfg.Seed = 7
	cfg.Store = st
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	await := func() {
		t.Helper()
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
	}
	await()
	l0, l1 := g.Links[0], g.Links[1]
	if err := d.CutLink(l0.From, l0.To); err != nil {
		t.Fatal(err)
	}
	await()
	if err := d.CutLink(l1.From, l1.To); err != nil {
		t.Fatal(err)
	}
	await()
	if err := d.SetLink(l0.From, l0.To, l0.Cost); err != nil {
		t.Fatal(err)
	}
	await()
	dump := d.ReadView().Dump()
	if err := n.FlushStore(); err != nil {
		t.Fatalf("FlushStore: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dump
}

// TestStoreLogMatchesMemory is the PR 6 determinism pin: the churn
// workload's tables and condensed provenance are bit-identical across
// (a) the in-memory MemStore materialization and (b) a storelog recovery
// that replays the full event log after a simulated crash (torn final
// record) — both also matching the live driver's published ReadView, and
// every event durable exactly once.
func TestStoreLogMatchesMemory(t *testing.T) {
	// (a) In-memory oracle.
	mem := core.NewMemStore()
	viewDump := churnRun(t, mem)
	memState := mem.State()
	if got := memState.LiveDump(); got != viewDump {
		t.Fatalf("MemStore live state diverges from published ReadView\n--- view ---\n%s\n--- store ---\n%s", viewDump, got)
	}
	fullDump := memState.Dump()
	if mem.Seals() == 0 {
		t.Fatal("driver never sealed the store at quiescence")
	}

	// (b) Durable log, then a simulated crash: garbage appended after the
	// last intact record (a torn write). Recovery must skip the torn tail
	// and replay every event to the same state.
	dir := t.TempDir()
	log, err := storelog.Open(dir, storelog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := churnRun(t, log); got != viewDump {
		t.Fatalf("storelog run published different view\n--- mem ---\n%s\n--- log ---\n%s", viewDump, got)
	}
	path := filepath.Join(dir, storelog.FileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: plausible length prefix, payload cut short mid-write.
	if _, err := f.Write([]byte{0x40, 0, 0, 0, byte(core.EvInsert), 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	state, stats, err := storelog.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornBytes != 7 {
		t.Errorf("crash simulation left %d torn bytes, want 7", stats.TornBytes)
	}
	if stats.Events != mem.Events() {
		t.Errorf("recovered %d events, the run appended %d", stats.Events, mem.Events())
	}
	if got := state.LiveDump(); got != viewDump {
		t.Fatalf("post-crash recovery diverges\n--- mem ---\n%s\n--- recovered ---\n%s", viewDump, got)
	}
	if got := state.Dump(); got != fullDump {
		t.Fatalf("post-crash recovery stale tier diverges\n--- mem ---\n%s\n--- recovered ---\n%s", fullDump, got)
	}
}

// TestStoreLogRestartResumes is the crash/restart half: reopening a log
// with a torn tail truncates it, appending resumes from the recovered
// state, and a second recovery sees both the old and the new events.
func TestStoreLogRestartResumes(t *testing.T) {
	dir := t.TempDir()
	l, err := storelog.Open(dir, storelog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(kind core.EventKind, node, fact string, at float64) core.StoreEvent {
		return core.StoreEvent{Kind: kind, Node: node, Tuple: testTuple(fact), Prov: "<" + node + ">", At: at}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(ev(core.EvInsert, "a", "f1", 1)))
	must(l.Append(ev(core.EvInsert, "a", "f2", 1)))
	must(l.Seal())
	must(l.Append(ev(core.EvRetract, "a", "f1", 2)))
	must(l.Flush())
	if l.Pending() != 0 {
		t.Errorf("Pending after Flush = %d", l.Pending())
	}
	must(l.Close())

	// Crash: torn garbage after the clean close.
	path := filepath.Join(dir, storelog.FileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: Open truncates the torn tail and resumes.
	l2, err := storelog.Open(dir, storelog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-2 {
		t.Errorf("reopen should truncate 2 torn bytes: before %d, after %d", before.Size(), after.Size())
	}
	must(l2.Append(ev(core.EvInsert, "b", "f3", 3)))
	must(l2.Close())

	state, _, err := storelog.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewStoreState()
	for _, e := range []core.StoreEvent{
		ev(core.EvInsert, "a", "f1", 1), ev(core.EvInsert, "a", "f2", 1),
		ev(core.EvRetract, "a", "f1", 2), ev(core.EvInsert, "b", "f3", 3),
	} {
		want.Apply(e)
	}
	if got, w := state.Dump(), want.Dump(); got != w {
		t.Fatalf("restarted log state:\n%s\nwant:\n%s", got, w)
	}
}
