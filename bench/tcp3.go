package main

// The tcp3 probe: Best-Path to declared termination over three reliable
// TCP transports. It is not a workload and nothing gates on it — the path
// is dominated by timers (WaveTimeout 2 s, RetransmitTimeout 500 ms) and
// does not repeat within a tenth at any affordable length; README.md has
// the numbers. It exists so that the cost is on record until it does.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"provnet"
	"provnet/internal/nettcp"
)

const (
	tcp3Nodes     = 12
	tcp3Processes = 3
	tcp3Ops       = 8
	tcp3Deadline  = 60 * time.Second // per op; far beyond anything observed
)

func probeTCP3(ctx context.Context, seed int64) (*result, error) {
	var convergeMs, lagMs []float64
	var retransmits, acks, msgs int64
	var waves uint64
	res := &result{Metrics: metrics{}}
	for op := 0; op < tcp3Ops; op++ {
		o, err := tcp3Op(ctx, seed*1000+int64(op))
		if err != nil {
			return nil, fmt.Errorf("tcp3 op %d: %w", op, err)
		}
		res.Attempted++
		if !o.tablesMatch {
			res.Failed++
		}
		convergeMs = append(convergeMs, ms(o.converged))
		lagMs = append(lagMs, ms(o.declared-o.converged))
		retransmits += o.retransmits
		acks += o.acks
		msgs += o.msgs
		waves += o.waves
	}
	res.Correct = res.Failed == 0
	res.Metrics.set("nettcp.converge_ms_p50", "ms", median(convergeMs))
	res.Metrics.set("nettcp.term_lag_ms_p50", "ms", median(lagMs))
	res.Metrics.set("nettcp.retransmits_per_op", "count", per(float64(retransmits), tcp3Ops))
	res.Metrics.set("nettcp.acks_per_msg", "1", per(float64(acks), int(msgs)))
	res.Metrics.set("core.term_waves_per_op", "count", per(float64(waves), tcp3Ops))
	return res, nil
}

type tcp3Result struct {
	converged, declared     time.Duration // since every driver was started
	retransmits, acks, msgs int64
	waves                   uint64
	tablesMatch             bool
}

// tcp3Op runs one convergence: three transports on 127.0.0.1, each
// hosting a third of the nodes, the credit detector at its defaults.
func tcp3Op(ctx context.Context, seed int64) (*tcp3Result, error) {
	ctx, cancel := context.WithTimeout(ctx, tcp3Deadline)
	defer cancel()
	g := provnet.RandomGraph(provnet.TopoOptions{N: tcp3Nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	hosted := make([][]string, tcp3Processes)
	for i, name := range g.Nodes {
		hosted[i%tcp3Processes] = append(hosted[i%tcp3Processes], name)
	}
	tcps := make([]*nettcp.Transport, tcp3Processes)
	for p := range tcps {
		t, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Reliable: true, Context: ctx})
		if err != nil {
			return nil, err
		}
		defer t.Close()
		tcps[p] = t
	}
	for p, t := range tcps {
		for q, names := range hosted {
			if p == q {
				continue
			}
			for _, name := range names {
				t.AddPeer(name, tcps[q].Addr())
			}
		}
	}
	nets := make([]*provnet.Network, tcp3Processes)
	for p := range nets {
		n, err := provnet.New(provnet.BestPath, provnet.WithGraph(g), provnet.WithKeyBits(keyBits),
			provnet.WithSeed(seed), provnet.WithTransport(tcps[p], hosted[p]...))
		if err != nil {
			return nil, err
		}
		defer n.Close()
		nets[p] = n
	}
	start := time.Now()
	dets := make([]*provnet.TermDetector, tcp3Processes)
	for p, n := range nets {
		if err := n.Driver().Start(ctx); err != nil {
			return nil, err
		}
		dets[p] = n.StartTermination(ctx, provnet.TermConfig{})
	}

	// Converged: every process's published view agrees with the oracle.
	matches := func() bool {
		for p, n := range nets {
			view := n.Driver().ReadView()
			if checkCosts(g.Links, hosted[p], func(node string) []provnet.Tuple { return viewTuples(view, node, "spCost") }) != nil {
				return false
			}
		}
		return true
	}
	res := &tcp3Result{}
	allDone := make(chan struct{})
	go func() {
		defer close(allDone)
		for _, d := range dets {
			select {
			case <-d.Done():
			case <-ctx.Done():
				return
			}
		}
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	declared := (<-chan struct{})(allDone) // nil once seen
	for res.converged == 0 || res.declared == 0 {
		select {
		case <-ctx.Done():
			return nil, errors.Join(errors.New("no declared termination before the deadline"), ctx.Err())
		case <-declared:
			res.declared = time.Since(start)
			declared = nil
			if res.converged == 0 {
				// Declared before the tables were right would be a false
				// fixpoint; the final comparison below reports it.
				res.converged = res.declared
			}
		case <-tick.C:
			if res.converged == 0 && matches() {
				res.converged = time.Since(start)
			}
		}
	}
	for p, n := range nets {
		if _, err := n.Driver().AwaitQuiescence(ctx); err != nil {
			return nil, err
		}
		if err := dets[p].Err(); err != nil {
			return nil, err
		}
		st := tcps[p].Stats()
		res.retransmits += st.Retransmits
		res.acks += st.AckMessages
		res.msgs += st.Messages
		res.waves = max(res.waves, dets[p].Waves())
	}
	res.tablesMatch = matches()
	return res, nil
}
