// Command provnet runs an NDlog/SeNDlog program on a simulated network
// and prints the resulting tables, with configurable authentication and
// provenance modes:
//
//	provnet -program routing.ndl -topo random:20:3:10:1 -auth rsa -prov condensed
//	provnet -program reachable.snd -topo ring:5 -show reachable
//	provnet -program routing.ndl -topo random:20:3:10:1 -churn 2
//
// Topology specs: random:N[:deg[:maxcost[:seed]]], line:N, ring:N,
// star:N, or none (the program's own facts place the nodes). With
// -churn N, the converged network cuts N random links through the live
// driver and re-converges incrementally before printing tables.
//
// With -http the converged process stays up and serves the /v1 query
// API (traceback, tables, bestpath, SSE subscriptions; see docs/API.md)
// until interrupted; with -store DIR every table change is appended to a
// durable store log in DIR, recoverable after a crash (docs/ARCHITECTURE.md,
// "Durable storage"):
//
//	provnet -program routing.ndl -topo line:4 -prov distributed -http 127.0.0.1:8080
//	provnet -program routing.ndl -topo ring:5 -store /var/lib/provnet
//
// With -metrics the network records scheduler/engine/crypto/transport/
// store series and a flight recorder of recent rounds; the -http server
// then also serves GET /metrics (Prometheus text) and GET
// /v1/debug/rounds, and -pprof additionally mounts net/http/pprof under
// /debug/pprof/ (see docs/OBSERVABILITY.md). Without -http, -metrics
// dumps the exposition to stderr at exit:
//
//	provnet -program routing.ndl -topo line:4 -prov distributed \
//	    -metrics -pprof -http 127.0.0.1:8080
//
// With -listen, the process becomes one member of a multi-process
// deployment over real TCP: it hosts the -self node(s) (comma-separated),
// reaches the others through the -peers map over acked, deduplicated
// frames that are re-sent only after a reconnect, re-announces its soft
// state when a peer restarts, and prints its own nodes' tables once the
// distributed termination detector declares the fixpoint; if it has not
// declared after 30 s — a peer never came up — the process reports the
// stall and exits non-zero instead of guessing. A -fault
// drop=P,dup=P,delay=P spec wraps the transport in a seeded fault
// schedule for chaos runs. Every process must be given the same program,
// topology, and -seed (the principal directory is derived from it). See
// docs/ARCHITECTURE.md and examples/multiprocess:
//
//	provnet -program routing.ndl -topo ring:3 -auth session \
//	    -listen 127.0.0.1:7001 -self n1 \
//	    -peers n0=127.0.0.1:7000,n2=127.0.0.1:7002
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"

	"provnet"
	"provnet/internal/queryapi"
)

func main() {
	programPath := flag.String("program", "", "path to the .ndl/.snd program (required)")
	topoSpec := flag.String("topo", "none", "topology: random:N[:deg[:maxcost[:seed]]], line:N, ring:N, star:N, none")
	provMode := flag.String("prov", "none", "provenance: none, local, distributed, condensed")
	show := flag.String("show", "", "comma-separated predicates to print (default: all)")
	annotate := flag.Bool("annotate", false, "print condensed provenance annotations")
	extraNodes := flag.String("extranodes", "", "comma-separated node names not mentioned in any fact placement")
	opts := registerFlags(flag.CommandLine)
	flag.Parse()

	if *programPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	cfg := provnet.Config{Source: string(src)}
	if cfg.Graph, err = parseTopo(*topoSpec); err != nil {
		fatal(err)
	}
	if cfg.Prov, err = parseProv(*provMode); err != nil {
		fatal(err)
	}
	if *extraNodes != "" {
		for _, nm := range strings.Split(*extraNodes, ",") {
			cfg.ExtraNodes = append(cfg.ExtraNodes, strings.TrimSpace(nm))
		}
	}

	ctx := context.Background()
	if err := opts.setupTransport(ctx, &cfg); err != nil {
		fatal(err)
	}
	if err := opts.apply(&cfg); err != nil {
		fatal(err)
	}

	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	var rep *provnet.Report
	if opts.distributed() {
		rep, err = opts.runDistributed(ctx, n)
		// Stop the pump and release the sockets before reading tables,
		// so a straggler frame cannot mutate state mid-print.
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	} else {
		rep, err = n.Run(0)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fixpoint in %v (%d rounds): %d messages, %d bytes", rep.CompletionTime, rep.Rounds, rep.Messages, rep.Bytes)
	if rep.Signed > 0 {
		fmt.Printf(", %d signatures", rep.Signed)
	}
	if rep.Handshakes > 0 {
		fmt.Printf(", %d handshakes (%d datagram bytes), %d session MACs", rep.Handshakes, rep.HandshakeBytes, rep.SealedMAC)
	}
	if rep.Reconnects > 0 || rep.Requeues > 0 || rep.Parked > 0 {
		fmt.Printf(", %d reconnects (%d frames requeued, %d parked)", rep.Reconnects, rep.Requeues, rep.Parked)
	}
	if rep.Acks > 0 || rep.Retransmits > 0 || rep.DupDropped > 0 {
		fmt.Printf(", %d acks (%d retransmits, %d dups dropped)", rep.Acks, rep.Retransmits, rep.DupDropped)
	}
	fmt.Println()

	if opts.Churn > 0 {
		churn, err := opts.runChurn(ctx, n, cfg.Graph)
		if err != nil {
			fatal(err)
		}
		fmt.Println(churn)
	}

	var filter map[string]bool
	if *show != "" {
		filter = map[string]bool{}
		for _, p := range strings.Split(*show, ",") {
			filter[strings.TrimSpace(p)] = true
		}
	}
	for _, node := range n.Nodes() {
		eng := n.Node(node).Engine
		for _, pred := range eng.Predicates() {
			if filter != nil && !filter[pred] {
				continue
			}
			for _, tu := range n.Tuples(node, pred) {
				fmt.Printf("%s\t%s", node, tu)
				if *annotate && cfg.Prov == provnet.ProvCondensed {
					fmt.Printf("\t%s", n.CondensedExpr(node, tu))
				}
				fmt.Println()
			}
		}
	}

	if opts.HTTP != "" {
		ln, err := net.Listen("tcp", opts.HTTP)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		// The query server also mounts /metrics and /v1/debug/rounds when
		// the network carries a registry (-metrics).
		mux.Handle("/", queryapi.NewServer(n).Handler())
		if opts.PProf {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		// The readiness line carries the bound address (":0" picks a free
		// port) so scripts can scrape it before querying.
		fmt.Printf("serving query API on http://%s/v1\n", ln.Addr())
		if err := http.Serve(ln, mux); err != nil {
			fatal(err)
		}
	} else if opts.Metrics {
		// No server to scrape: dump the exposition once at exit.
		if err := n.Metrics().WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "provnet:", err)
	os.Exit(1)
}
