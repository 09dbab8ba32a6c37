// Command multiprocess demonstrates the TCP transport: the Best-Path
// query of §6 runs as three separate OS processes, each hosting one node
// of a 3-ring, connected over loopback TCP with the session security
// stack (one RSA handshake per link, HMAC-sealed envelopes after).
//
// Run with no arguments, it forks three copies of itself — one per node
// — waits for them to converge, and relays their output. Each child is
// an ordinary provnet process: a reliable nettcp transport, a Config
// hosting one LocalNodes entry with soft-state resupply, and the
// lifecycle driver run until the termination detector declares the
// distributed fixpoint.
// The printed bestPath tables are exactly the single-process netsim
// run's (see cmd/provnet's TestMultiprocessMatchesSingleProcess).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"provnet"
	"provnet/internal/nettcp"
)

func main() {
	self := flag.String("self", "", "child mode: the node this process hosts")
	listen := flag.String("listen", "", "child mode: TCP listen address")
	peers := flag.String("peers", "", "child mode: name=addr,... peer map")
	flag.Parse()
	if *self == "" {
		parent()
		return
	}
	child(*self, *listen, *peers)
}

// parent reserves three loopback ports, forks one child per node, and
// relays their output line by line.
func parent() {
	exe, err := os.Executable()
	check(err)
	nodes := []string{"n0", "n1", "n2"}
	addrs := make([]string, len(nodes))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i, self := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other+"="+addrs[j])
			}
		}
		cmd := exec.CommandContext(ctx, exe,
			"-self", self, "-listen", addrs[i], "-peers", strings.Join(peers, ","))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		check(err)
		check(cmd.Start())
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				fmt.Printf("[%s] %s\n", name, sc.Text())
			}
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}(self)
	}
	wg.Wait()
}

// child hosts one node: same program, topology, and seed as its siblings
// (the deterministic principal directory is derived from the seed, so
// handshakes verify across processes), with only LocalNodes differing.
func child(self, listen, peerSpec string) {
	peers := map[string]string{}
	for _, p := range strings.Split(peerSpec, ",") {
		name, addr, _ := strings.Cut(p, "=")
		peers[name] = addr
	}
	ctx := context.Background()
	tcp, err := nettcp.New(nettcp.Config{Listen: listen, Peers: peers, Context: ctx, Reliable: true})
	check(err)
	n, err := provnet.NewNetwork(provnet.Config{
		Source:     provnet.BestPath,
		Graph:      provnet.RingGraph(3),
		Auth:       provnet.AuthSession,
		Prov:       provnet.ProvCondensed,
		KeyBits:    1024, // the paper's 2008 setup; fine for a demo
		Transport:  tcp,
		LocalNodes: []string{self},
	})
	check(err)
	d := n.Driver()
	check(d.Start(ctx))
	td := n.StartTermination(ctx, provnet.TermConfig{})
	<-td.Done()
	check(td.Err())
	rep, err := d.AwaitQuiescence(ctx)
	check(err)
	check(n.Close())
	fmt.Printf("converged: %d rounds, %d messages, %d handshakes\n",
		rep.Rounds, rep.Messages, rep.Handshakes)
	for _, tu := range n.Tuples(self, "bestPath") {
		fmt.Printf("%s  %s\n", tu, n.CondensedExpr(self, tu))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiprocess:", err)
		os.Exit(1)
	}
}
