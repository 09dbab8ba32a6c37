package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"os"
	"strings"
	"sync"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/netsim"
	"provnet/internal/provenance"
)

// saidFrame is a data frame carrying one tuple no run derives, so a
// receiver that accepts it shows it in its tables.
func saidFrame(from, to, what string) outFrame {
	return outFrame{to, &frame{kind: kindData, from: from, items: []item{
		{tuple: data.NewTuple("reachable", data.Str(from), data.Str(what))}}}}
}

// sealRound seals frames as one round of from, the way sealAndSend does.
func sealRound(t testing.TB, sealer auth.Sealer, from string, frames ...outFrame) [][]byte {
	t.Helper()
	var out [][]byte
	signs, err := sealFrames(new(roundScratch), sealer, from, frames, func(_ outFrame, datagram []byte) error {
		out = append(out, datagram)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sealer.Scheme() == auth.SchemeRSA && signs != 1 {
		t.Fatalf("%d frames cost %d signatures, want one", len(frames), signs)
	}
	return out
}

// retag returns the datagram with its tag replaced by edit's result.
func retag(t testing.TB, datagram []byte, edit func(tag []byte) []byte) []byte {
	t.Helper()
	f, err := decodeFrame(datagram, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data.AppendBytes(append([]byte(nil), f.signed...), edit(append([]byte(nil), f.tag...)))
}

// treeTagVariants are the forged-path shapes of a tree-tagged datagram
// whose signature is sigSize bytes: none may open.
func treeTagVariants(t testing.TB, datagram []byte, sigSize int) map[string][]byte {
	return map[string][]byte{
		"sibling byte flipped": retag(t, datagram, func(tag []byte) []byte { tag[len(tag)-1] ^= 1; return tag }),
		"direction flipped":    retag(t, datagram, func(tag []byte) []byte { tag[sigSize] ^= 1; return tag }),
		"direction bit above the depth": retag(t, datagram, func(tag []byte) []byte {
			tag[sigSize] |= 0x80
			return tag
		}),
		"path truncated one level": retag(t, datagram, func(tag []byte) []byte { return tag[:len(tag)-sha256.Size] }),
		"path extended one level":  retag(t, datagram, func(tag []byte) []byte { return append(tag, make([]byte, sha256.Size)...) }),
		"half a sibling":           retag(t, datagram, func(tag []byte) []byte { return tag[:len(tag)-sha256.Size/2] }),
		"tag shorter than the signature": retag(t, datagram, func(tag []byte) []byte {
			return tag[:sigSize-1]
		}),
	}
}

// TestForgedTreeFramesRejected injects, into a per-round-RSA network that
// has not run yet, datagrams built from real three-frame rounds of b and
// of c: each is dropped and counted and the run ends with the tables of
// a run that never saw it. The untouched datagram opens, so every
// rejection is the forgery's doing. The cross-link replay opens at the
// parent of the change that bound the leaf to its link.
func TestForgedTreeFramesRejected(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, KeyBits: 512}
	clean, _ := mustRun(t, cfg)
	want := render(clean, shape{})
	const sigSize = 512 / 8

	type injection struct {
		to       string
		datagram []byte
	}
	forgeries := map[string]func(t *testing.T, n *Network) []injection{
		"cross-link replay": func(t *testing.T, n *Network) []injection {
			round := sealRound(t, n.sealer, "b", saidFrame("b", "a", "replayed"), saidFrame("b", "a", "other"))
			alone := sealRound(t, n.sealer, "b", saidFrame("b", "a", "replayed alone"))
			return []injection{{"c", round[0]}, {"c", alone[0]}}
		},
		"forged leaf": func(t *testing.T, n *Network) []injection {
			round := sealRound(t, n.sealer, "b", saidFrame("b", "a", "said"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			forged := append([]byte(nil), round[0]...)
			forged[bytes.Index(forged, []byte("said"))] ^= 1 // still parses; another tuple
			return []injection{{"a", forged}}
		},
		"forged path": func(t *testing.T, n *Network) []injection {
			round := sealRound(t, n.sealer, "b", saidFrame("b", "a", "said"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			var in []injection
			for _, d := range treeTagVariants(t, round[0], sigSize) {
				in = append(in, injection{"a", d})
			}
			return in
		},
		"replayed root": func(t *testing.T, n *Network) []injection {
			r1 := sealRound(t, n.sealer, "b", saidFrame("b", "a", "round one"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			r2 := sealRound(t, n.sealer, "b", saidFrame("b", "a", "round two"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			old, err := decodeFrame(r1[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			return []injection{{"a", retag(t, r2[0], func([]byte) []byte { return old.tag })}}
		},
		"cross-tree splice": func(t *testing.T, n *Network) []injection {
			mine := sealRound(t, n.sealer, "b", saidFrame("b", "a", "said"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			theirs := sealRound(t, n.sealer, "c", saidFrame("c", "a", "said"), saidFrame("c", "b", "x"), saidFrame("c", "a", "y"))
			other, err := decodeFrame(theirs[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			// b's frame under c's whole tag, and under b's signature over
			// c's path.
			return []injection{
				{"a", retag(t, mine[0], func([]byte) []byte { return other.tag })},
				{"a", retag(t, mine[0], func(tag []byte) []byte { return append(tag[:sigSize], other.tag[sigSize:]...) })},
			}
		},
		"interior node as leaf": func(t *testing.T, n *Network) []injection {
			// Four leaves: the signed bytes are leaf 0 ‖ leaf 1, the tag
			// the path of the node above them. (That a parsable frame
			// could hash to a leaf is what internal/auth's
			// TestInteriorNodeIsNoLeaf rules out; here the datagram is
			// refused whichever layer gets to it first.)
			round := sealRound(t, n.sealer, "b", saidFrame("b", "a", "0"), saidFrame("b", "a", "1"), saidFrame("b", "a", "2"), saidFrame("b", "a", "3"))
			f0, err := decodeFrame(round[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			leaf := func(signed []byte) []byte {
				sum := sha256.Sum256(append(data.AppendString([]byte{0x00}, "a"), signed...))
				return sum[:]
			}
			children := append(leaf(f0.signed), f0.tag[sigSize+1:sigSize+1+sha256.Size]...)
			path := append(append(append([]byte(nil), f0.tag[:sigSize]...), 0), f0.tag[sigSize+1+sha256.Size:]...)
			return []injection{{"a", data.AppendBytes(children, path)}}
		},
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			honest := sealRound(t, n.sealer, "b", saidFrame("b", "a", "said"), saidFrame("b", "c", "x"), saidFrame("b", "a", "y"))
			if f, err := decodeFrame(honest[0], nil); err != nil || f.open(n.sealer, "a") != nil {
				t.Fatalf("the honest frame must open where it was sent: %v", err)
			}
			in := forge(t, n)
			for _, i := range in {
				if err := n.Transport().Send("b", i.to, i.datagram); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := n.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RejectedSig != int64(len(in)) {
				t.Errorf("RejectedSig = %d, want %d", rep.RejectedSig, len(in))
			}
			if got := render(n, shape{}); got != want {
				t.Errorf("tables polluted\n--- clean ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// tap is the in-memory fabric with a recorder on it: a running hash of
// every non-handshake datagram in send order (a handshake wraps its key
// under fresh random padding, so its bytes never repeat), and the number
// of (sender, round) pairs that shipped at least one — a round's sends
// all precede its drains.
type tap struct {
	*netsim.Network
	mu      sync.Mutex
	stream  hash.Hash
	senders map[string]bool
	pairs   int64
}

func newTap() *tap {
	return &tap{Network: netsim.New(), stream: sha256.New(), senders: map[string]bool{}}
}

func (tp *tap) Send(from, to string, payload []byte) error {
	tp.mu.Lock()
	if payload[0] != kindHandshake {
		tp.senders[from] = true
		tp.stream.Write(binary.AppendUvarint(data.AppendString(data.AppendString(nil, from), to), uint64(len(payload))))
		tp.stream.Write(payload)
	}
	tp.mu.Unlock()
	return tp.Network.Send(from, to, payload)
}

func (tp *tap) Drain(to string) []netsim.Message {
	tp.mu.Lock()
	tp.pairs += int64(len(tp.senders))
	clear(tp.senders)
	tp.mu.Unlock()
	return tp.Network.Drain(to)
}

// capTap is the in-memory fabric, counting the datagrams it is handed,
// those with room past their end, and the (sender, round) pairs that
// shipped more than one — a round's sends all precede its drains.
type capTap struct {
	*netsim.Network
	mu                   sync.Mutex
	round                map[string]int
	sent, loose, batched int
}

func (ct *capTap) Send(from, to string, payload []byte) error {
	ct.mu.Lock()
	ct.sent++
	if cap(payload) != len(payload) {
		ct.loose++
	}
	if ct.round[from]++; ct.round[from] == 2 {
		ct.batched++
	}
	ct.mu.Unlock()
	return ct.Network.Send(from, to, payload)
}

func (ct *capTap) Drain(to string) []netsim.Message {
	ct.mu.Lock()
	clear(ct.round)
	ct.mu.Unlock()
	return ct.Network.Drain(to)
}

// TestDatagramsCapacityLimited pins the aliasing contract of a round's
// datagram arena: the datagrams a node seals in one round share one
// array, so each must end at its capacity — a transport, or a fault
// injector in front of it, that appends to one must not write into the
// next one's bytes. Every datagram of a Best-Path batch run and a link
// flap, under each sealer, has cap == len.
func TestDatagramsCapacityLimited(t *testing.T) {
	for _, scheme := range []auth.Scheme{auth.SchemeNone, auth.SchemeRSA, auth.SchemeSession} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := bestPathCfg()
			cfg.Auth, cfg.Prov = scheme, provenance.ModeCondensed
			ct := &capTap{Network: netsim.New(), round: map[string]int{}}
			cfg.Transport = ct
			n, _ := mustRun(t, cfg)
			l := cfg.Graph.Links[0]
			d := n.Driver()
			for _, flap := range []func() error{
				func() error { return d.CutLink(l.From, l.To) },
				func() error { return d.SetLink(l.From, l.To, l.Cost) },
			} {
				if err := flap(); err != nil {
					t.Fatal(err)
				}
				if _, err := d.AwaitQuiescence(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if ct.batched == 0 {
				t.Fatalf("no node shipped two datagrams in one round")
			}
			if ct.loose != 0 {
				t.Errorf("%d of %d datagrams have capacity past their end", ct.loose, ct.sent)
			}
		})
	}
}

// TestSignedCountsTrees pins what Report.Signed counts under RSA says
// without sessions: batched, one signature per (node, round)
// that shipped anything — fewer than the messages; under Unbatched, the
// paper's per-tuple baseline, one per message.
func TestSignedCountsTrees(t *testing.T) {
	cfg := bestPathCfg()
	tp := newTap()
	cfg.Transport = tp
	_, rep := mustRun(t, cfg)
	if rep.Signed != tp.pairs || rep.Signed >= rep.Messages {
		t.Errorf("batched: Signed = %d, want the %d (node, round) pairs that shipped and fewer than the %d messages",
			rep.Signed, tp.pairs, rep.Messages)
	}
	if rep.Verified != rep.Messages {
		t.Errorf("batched: Verified = %d, want one per message (%d)", rep.Verified, rep.Messages)
	}

	cfg.Unbatched = true
	cfg.Transport = nil
	_, repU := mustRun(t, cfg)
	if repU.Signed != repU.Messages || repU.Verified != repU.Messages {
		t.Errorf("unbatched: Signed = %d, Verified = %d, want one per message (%d)", repU.Signed, repU.Verified, repU.Messages)
	}
}

// TestMACDatagramsUnchanged pins the schemes a hash tree gives nothing
// to: under none, HMAC and the session transport the sequential Best-Path
// run ships, byte for byte, the datagrams it shipped before the RSA
// scheme began signing trees (the hashes were recorded at that commit).
func TestMACDatagramsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"none", func(c *Config) { c.Auth = auth.SchemeNone }, "2bdf4bbba8fd42530fae8c4051df88bf841846868d73e794ee27e9ceb3ecf330"},
		{"hmac", func(c *Config) { c.Auth = auth.SchemeHMAC }, "9ae633b924ed85879d05c6deadc10eca5987c5aaa9cdfc0cf810437ae7eaed78"},
		{"session", func(c *Config) { c.Auth = auth.SchemeSession }, "2b7f4e3be8b3b68a4fb63032a33e98f03a74346fdf2485095ec0faf8e74bb878"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := bestPathCfg()
			cfg.Sequential = true
			c.mut(&cfg)
			tp := newTap()
			cfg.Transport = tp
			mustRun(t, cfg)
			if got := hex.EncodeToString(tp.stream.Sum(nil)); got != c.want {
				t.Errorf("datagram stream hash = %s, want %s", got, c.want)
			}
		})
	}
}

// treeGolden is the datagram docs/WIRE.md takes apart under "The tag": the
// token fixture sealed as the middle frame of a three-frame round of a
// (retract to b, token to b, data to c) under the 512-bit keys of the
// deterministic test directory.
const treeGolden = "04016105018101545f4c665fd895b43586c4d294caf85a7a79b51c88f8b34ac69f6b3dc23509f4198c256b057993199bb09df0d6536843d669f796667a101da0999a803f73aca201f46a8d2f0b1b9aeb614c3a220e50f935e3bc4934d56baee1b5e79d33fcf2590e9f912d20b74046fd5e140ae8f90c5b0cc64123979054274f1a908c4ceb3284e2"

func TestTreeTagGolden(t *testing.T) {
	var round []outFrame
	for _, pick := range []struct{ name, to string }{{"retract", "b"}, {"token", "b"}, {"data-unsigned", "c"}} {
		for i := range wireCases {
			if wireCases[i].name == pick.name {
				round = append(round, outFrame{pick.to, &wireCases[i].frame})
			}
		}
	}
	sealer := testSealers(t)["rsa"]
	got := hex.EncodeToString(sealRound(t, sealer, "a", round...)[1])
	if got != treeGolden {
		t.Errorf("tree-tagged token drifted from docs/WIRE.md\n golden: %s\n sealed: %s", treeGolden, got)
	}
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "`"+treeGolden+"`") {
		t.Errorf("docs/WIRE.md does not quote the tree-tag fixture `%s`", treeGolden)
	}
	golden, err := hex.DecodeString(treeGolden)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.open(sealer, "b"); err != nil {
		t.Errorf("open: %v", err)
	}
	if f.open(sealer, "c") == nil {
		t.Error("the fixture opened on a link it was not sealed for")
	}
}
