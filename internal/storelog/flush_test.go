package storelog

import (
	"sync"
	"testing"

	"provnet/internal/core"
	"provnet/internal/data"
)

func flushEvent(i int) core.StoreEvent {
	return core.StoreEvent{Kind: core.EvInsert, Node: "a", Tuple: data.NewTuple("fact", data.Int(int64(i))), At: float64(i)}
}

// TestConcurrentFlushes runs Flush barriers from several goroutines at
// once, each after its own appends: every barrier returns, clean, with
// its events written.
func TestConcurrentFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := l.Append(flushEvent(w*rounds + i)); err != nil {
					t.Error(err)
					return
				}
				if err := l.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := l.Pending(); n != 0 {
		t.Errorf("Pending after every Flush returned = %d", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := Recover(dir); err != nil || stats.Events != writers*rounds {
		t.Fatalf("recovered %d events (err %v), want %d", stats.Events, err, writers*rounds)
	}
}

// TestFlushReportsWriteFailure fails the writer's next write: the Flush
// waiting on that batch returns the error, and so does every later call.
func TestFlushReportsWriteFailure(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(flushEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the writer is idle: its next batch writes to a closed file
	if err := l.Append(flushEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("Flush over a failed write returned nil")
	}
	if err := l.Flush(); err == nil {
		t.Fatal("Flush after a failed write returned nil")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after a failed write returned nil")
	}
}
