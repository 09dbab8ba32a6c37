package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/bdd"
	"provnet/internal/data"
	"provnet/internal/provenance"
)

// decodeFrame parses one datagram into a new frame with a pooled decoder
// (see frame.decode).
func decodeFrame(p []byte, syms *data.Symbols) (*frame, error) {
	dec := data.NewDecoder(syms)
	defer dec.Release()
	f := new(frame)
	if err := f.decode(p, syms, dec); err != nil {
		return nil, err
	}
	return f, nil
}

func testDir(t testing.TB) *auth.Directory {
	t.Helper()
	dir := auth.NewDeterministicDirectory(11)
	dir.SetKeyBits(512)
	for _, p := range []string{"a", "b", "c"} {
		if err := dir.AddPrincipal(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// testSealers returns the sealers the table's rows name. Every row is
// sent to b, so the session sealer comes with one handshake accepted at b
// for each sender.
func testSealers(t testing.TB) map[string]auth.Sealer {
	t.Helper()
	dir := testDir(t)
	session := auth.NewSessionSealer(dir, 0)
	for _, from := range []string{"a", "c"} {
		_, epoch, err := session.EnsureSession(from, "b")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := session.SealHandshake(from, "b", epoch)
		if err == nil {
			_, err = session.AcceptHandshake("b", blob)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]auth.Sealer{
		"none":    auth.SignerSealer{S: auth.NoneSigner{}},
		"rsa":     auth.SignerSealer{S: auth.NewRSASigner(dir)},
		"session": session,
	}
}

// placeholder seals every frame with the same bytes and opens only those:
// the golden fixtures pin layout, not cryptography. A handshake blob is
// whatever the session sealer says it is, so here it is the placeholder.
type placeholder []byte

func (p placeholder) Scheme() auth.Scheme                        { return auth.SchemeNone }
func (p placeholder) Seal(_, _ string, _ []byte) ([]byte, error) { return p, nil }
func (p placeholder) SealBatch(_ string, batch []auth.Envelope, buf []byte) ([]byte, int, error) {
	for i := range batch {
		batch[i].Tag = p
	}
	return buf, 0, nil
}
func (p placeholder) SealHandshake(_, _ string, _ uint64) ([]byte, error) { return p, nil }
func (p placeholder) AcceptHandshake(_ string, blob []byte) (string, error) {
	return "", p.Open("", "", nil, blob)
}
func (p placeholder) Open(_, _ string, _, tag []byte) error {
	if !bytes.Equal(tag, p) {
		return errors.New("not the placeholder tag")
	}
	return nil
}

// condensedTable is the provenance table of the condensed fixture: <b*c>
// under the variable order b, c — two variables, two nodes, the second
// referencing the first (TestCondensedFixtureTable).
var condensedTable = []byte{0x02, 0x01, 'c', 0x01, 'b', 0x02, 0x00, 0x00, 0x01, 0x01, 0x00, 0x02}

var bestPathCA = data.NewTuple("bestPath", data.Str("c"), data.Str("a"), data.List(data.Str("c"), data.Str("a")), data.Int(1))

// wireCases is the one table every wire test walks: each frame kind, and
// data and retract once more under the session sealer, whose tag (epoch +
// MAC) is the only thing that differs. golden is the frame sealed with
// the placeholder tag; docs/WIRE.md quotes each string verbatim.
var wireCases = []struct {
	name   string
	frame  frame
	sealer string // key into testSealers
	tag    placeholder
	golden string
}{
	{
		name: "data-unsigned", sealer: "none",
		frame: frame{kind: kindData, from: "a", mode: provenance.ModeNone, items: []item{
			{tuple: data.NewTuple("reachable", data.Str("a"), data.Str("b"))}}},
		golden: "010161000109726561636861626c6500020301610301620000",
	},
	{
		name: "data", sealer: "rsa", tag: placeholder{0xc0, 0xde},
		frame: frame{kind: kindData, from: "b", mode: provenance.ModeCondensed, table: condensedTable, items: []item{
			{tuple: data.NewTuple("path", data.Str("b"), data.Str("c"), data.Int(3)), ref: 4},
			{tuple: data.NewTuple("link", data.Str("b"), data.Str("c"))}}},
		golden: "010162030c0201630162020000010100020204706174680003030162030163000604046c696e6b00020301620301630002c0de",
	},
	{
		name: "data-session", sealer: "session", tag: placeholder{0x00, 0xfe, 0xed},
		frame:  frame{kind: kindData, from: "c", mode: provenance.ModeNone, items: []item{{tuple: bestPathCA}}},
		golden: "0101630001086265737450617468000403016303016104020301630301610002000300feed",
	},
	{
		name: "retract", sealer: "rsa", tag: placeholder{0xde, 0xad},
		frame: frame{kind: kindRetract, from: "a", items: []item{{tuple: data.NewTuple("bestPath",
			data.Str("a"), data.Str("c"), data.List(data.Str("a"), data.Str("b"), data.Str("c")), data.Int(2))}}},
		golden: "0201610108626573745061746800040301610301630403030161030162030163000402dead",
	},
	{
		name: "retract-session", sealer: "session", tag: placeholder{0x00, 0xfe, 0xed},
		frame:  frame{kind: kindRetract, from: "c", items: []item{{tuple: bestPathCA}}},
		golden: "020163010862657374506174680004030163030161040203016303016100020300feed",
	},
	{
		name: "handshake", sealer: "session", tag: placeholder{0x01, 0x02, 0x03},
		frame:  frame{kind: kindHandshake, from: "a"},
		golden: "03010203",
	},
	{
		name: "token", sealer: "rsa", tag: placeholder{0xaa, 0xbb},
		frame:  frame{kind: kindToken, from: "a", wave: 5, acts: 1},
		golden: "040161050102aabb",
	},
	{
		name: "terminate", sealer: "rsa", tag: placeholder{0xde, 0xad},
		frame:  frame{kind: kindTerminate, from: "a", wave: 7},
		golden: "050161070002dead",
	},
}

// condensedFrame is a ModeCondensed data frame from b whose items, one
// per ref, point into table: the hand-made tables and refs the decoder
// must refuse (or, for condensedTable's refs, accept).
func condensedFrame(table []byte, refs ...uint64) *frame {
	f := &frame{kind: kindData, from: "b", mode: provenance.ModeCondensed, table: table}
	for i, ref := range refs {
		f.items = append(f.items, item{tuple: data.NewTuple("reachable", data.Str("a"), data.Str("forged"+strconv.Itoa(i))), ref: ref})
	}
	return f
}

// TestCondensedFixtureTable ties the condensed fixture to the codec: its
// table is what a manager ordering b above c writes for <b*c>, ref 2 is
// the shared suffix <c>, and it decodes back to both.
func TestCondensedFixtureTable(t *testing.T) {
	m := bdd.New()
	b, c := m.Var("b"), m.Var("c")
	table, refs := m.AppendTable(nil, nil, []bdd.Node{m.And(b, c), c})
	if !bytes.Equal(table, condensedTable) || refs[0] != 3 || refs[1] != 2 {
		t.Fatalf("AppendTable(<b*c>, <c>) = %x %v, want the fixture's %x [3 2]", table, refs, condensedTable)
	}
	m2 := bdd.New()
	nodes, err := m2.DecodeTable(condensedTable)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Expr(nodes[3]) + " | " + m2.Expr(nodes[2]); got != "b*c | c" {
		t.Errorf("the fixture's table decodes to %s, want b*c | c", got)
	}
}

// sameFrame reports the first field a decoded frame lost or changed.
func sameFrame(t *testing.T, got, want *frame) {
	t.Helper()
	if got.kind != want.kind || got.from != want.from || got.mode != want.mode || !bytes.Equal(got.table, want.table) ||
		got.wave != want.wave || got.acts != want.acts || len(got.items) != len(want.items) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i, it := range want.items {
		if !got.items[i].tuple.Equal(it.tuple) || !bytes.Equal(got.items[i].prov, it.prov) || got.items[i].ref != it.ref {
			t.Fatalf("item %d = %+v, want %+v", i, got.items[i], it)
		}
	}
}

// TestEnvelopeRoundTrip: what seal writes, decodeFrame reads back field
// for field and open accepts, for every kind under its real sealer.
func TestEnvelopeRoundTrip(t *testing.T) {
	sealers := testSealers(t)
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			want := c.frame
			b, err := want.seal(new(roundScratch), sealers[c.sealer], "b")
			if err != nil {
				t.Fatal(err)
			}
			if b[0] != want.kind {
				t.Fatalf("first byte %d, want the kind %d", b[0], want.kind)
			}
			got, err := decodeFrame(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.kind == kindHandshake {
				want.from = "" // a handshake names its sender inside the blob only
			}
			sameFrame(t, got, &want)
			if err := got.open(sealers[c.sealer], "b"); err != nil {
				t.Fatalf("open: %v", err)
			}
			if c.sealer == "session" && got.open(sealers[c.sealer], "a") == nil {
				t.Error("a session frame opened on a link it was not sealed for")
			}
		})
	}
}

// TestEnvelopeTamperDetection flips every byte of every authenticated
// frame: each flip must fail to decode or fail to open. The first byte is
// one of them, so this is also where a token replayed as a terminate
// frame (4 → 5) is refused: the tag covers the kind.
func TestEnvelopeTamperDetection(t *testing.T) {
	sealers := testSealers(t)
	for _, c := range wireCases {
		if c.sealer == "none" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			f := c.frame
			b, err := f.seal(new(roundScratch), sealers[c.sealer], "b")
			if err != nil {
				t.Fatal(err)
			}
			for i := range b {
				for _, bit := range []byte{0x01, 0x80} {
					bad := append([]byte(nil), b...)
					bad[i] ^= bit
					if got, err := decodeFrame(bad, nil); err == nil && got.open(sealers[c.sealer], "b") == nil {
						t.Fatalf("byte %d of %d flipped by %#x still opens", i, len(b), bit)
					}
				}
			}
		})
	}
	token := &frame{kind: kindToken, from: "a", wave: 5, acts: 1}
	b, err := token.seal(new(roundScratch), sealers["rsa"], "b")
	if err != nil {
		t.Fatal(err)
	}
	b[0] = kindTerminate
	got, err := decodeFrame(b, nil)
	if err != nil || got.kind != kindTerminate {
		t.Fatalf("a token with the terminate kind byte must parse as one: %+v, %v", got, err)
	}
	if got.open(sealers["rsa"], "b") == nil {
		t.Error("a token replayed as a terminate frame opened")
	}
}

// TestDecodeNeverPanics cuts every frame at every length and appends a
// byte to it: decodeFrame must refuse each — no frame is a prefix of
// another. A handshake blob has no length of its own, so there it is open
// that refuses.
func TestDecodeNeverPanics(t *testing.T) {
	sealers := testSealers(t)
	for _, c := range wireCases {
		f := c.frame
		b, err := f.seal(new(roundScratch), sealers[c.sealer], "b")
		if err != nil {
			t.Fatal(err)
		}
		var bad [][]byte
		for cut := 0; cut < len(b); cut++ {
			bad = append(bad, b[:cut])
		}
		bad = append(bad, append(append([]byte(nil), b...), 0))
		for _, p := range bad {
			got, err := decodeFrame(p, nil)
			if err == nil && (c.frame.kind != kindHandshake || got.open(sealers[c.sealer], "b") == nil) {
				t.Fatalf("%s: %d of %d bytes accepted", c.name, len(p), len(b))
			}
		}
	}
}

func TestDecodeEnvelopeErrors(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {0}, {0, 0}, {kindTerminate + 1, 0}, {99, 0}, {kindHandshake}} {
		if _, err := decodeFrame(p, nil); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("decodeFrame(%x) = %v, want ErrBadEnvelope", p, err)
		}
	}
}

// TestWireGoldenFixtures pins the documented byte layouts both ways —
// sealing the struct with the placeholder tag reproduces the golden
// bytes, decoding the golden bytes reproduces the struct — and pins the
// document to them: every fixture must appear in docs/WIRE.md verbatim.
func TestWireGoldenFixtures(t *testing.T) {
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) {
			if !strings.Contains(string(doc), "`"+c.golden+"`") {
				t.Errorf("docs/WIRE.md does not quote the %s fixture `%s`", c.name, c.golden)
			}
			golden, err := hex.DecodeString(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			want := c.frame
			sealed, err := want.seal(new(roundScratch), c.tag, "b")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sealed, golden) {
				t.Errorf("seal drifted from docs/WIRE.md\n golden: %x\n sealed: %x", golden, sealed)
			}
			got, err := decodeFrame(golden, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.kind == kindHandshake {
				want.from = ""
			}
			sameFrame(t, got, &want)
			if err := got.open(c.tag, "b"); err != nil {
				t.Errorf("open: %v", err)
			}
		})
	}
}

// TestOpenCoversReceivedBytes pins that open checks the tag over the
// bytes as they arrived, not over a re-encoding of what they parsed to:
// an over-long varint (item count 1 written 81 00) parses, so a frame
// sealed over exactly those bytes opens, while the same bytes under the
// tag of the canonical encoding — same tuples, different bytes — do not.
func TestOpenCoversReceivedBytes(t *testing.T) {
	sealer := testSealers(t)["rsa"]
	tu := data.NewTuple("p", data.Int(1))
	canonical := &frame{kind: kindData, from: "a", items: []item{{tuple: tu}}}
	sealed, err := canonical.seal(new(roundScratch), sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeFrame(sealed, nil)
	if err != nil {
		t.Fatal(err)
	}

	odd := append(data.AppendString([]byte{kindData}, "a"), byte(provenance.ModeNone), 0x81, 0x00)
	odd = data.AppendBytes(data.AppendTuple(odd, tu), nil)
	tag, err := sealer.Seal("a", "b", odd)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(data.AppendBytes(append([]byte(nil), odd...), tag), nil)
	if err != nil {
		t.Fatalf("an over-long varint parses: %v", err)
	}
	sameFrame(t, f, canonical)
	if err := f.open(sealer, "b"); err != nil {
		t.Errorf("sealed over the bytes it arrived as, yet: %v", err)
	}
	f, err = decodeFrame(data.AppendBytes(append([]byte(nil), odd...), cf.tag), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.open(sealer, "b") == nil {
		t.Error("a tag over the canonical re-encoding opened different bytes")
	}
}

// hostileCount is a data frame that announces count items in front of
// size bytes that are none.
func hostileCount(count uint64, size int) []byte {
	p := append(data.AppendString([]byte{kindData}, "a"), byte(provenance.ModeNone))
	return append(binary.AppendUvarint(p, count), bytes.Repeat([]byte{0xff}, size)...)
}

// TestDecodeHostileItemCount pins reject-before-allocating: an item count
// the 8 MiB behind it make just plausible, one they cannot hold and an
// absurd one are all refused having allocated next to nothing. The
// decoders this one replaced reserved 80 bytes an announced item.
func TestDecodeHostileItemCount(t *testing.T) {
	const size = 8 << 20
	fits := uint64(size / (minTupleSize + minPayloadSize))
	for _, count := range []uint64{fits, fits + 1, size, 1 << 62} {
		p := hostileCount(count, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeFrame(p, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("count %d: err = %v, want ErrBadEnvelope", count, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("count %d: allocated %d bytes before rejecting, want < 1 MiB", count, got)
		}
	}
}

// BenchmarkEnvelopeEncode measures the wire layer with RSA signing at the
// paper's key size: one single-tuple data frame, the per-tuple cost the
// paper attributes to authenticated communication.
func BenchmarkEnvelopeEncode(b *testing.B) {
	dir := auth.NewDeterministicDirectory(1)
	dir.SetKeyBits(1024)
	if err := dir.AddPrincipal("a", 1); err != nil {
		b.Fatal(err)
	}
	sealer := auth.SignerSealer{S: auth.NewRSASigner(dir)}
	tu := data.NewTuple("path", data.Str("a"), data.Str("c"), data.Strings("a", "b", "c"), data.Int(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &frame{kind: kindData, from: "a", items: []item{{tuple: tu}}}
		if _, err := f.seal(new(roundScratch), sealer, "b"); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeEnvelope fuzzes the decoder from the golden fixtures, really
// sealed frames of every kind, tree-tagged rounds with their forged
// shapes, and the hostile payloads above: whatever
// the bytes, decodeFrame returns a frame or an error and open a verdict —
// never a panic. CI runs the fuzzer for a fixed budget on every build.
func FuzzDecodeEnvelope(f *testing.F) {
	sealers := testSealers(f)
	for _, c := range wireCases {
		golden, err := hex.DecodeString(c.golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		fr := c.frame
		sealed, err := fr.seal(new(roundScratch), sealers[c.sealer], "b")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sealed)
	}
	// A tuple argument of 64 nested {KindList, 1} headers: past the
	// codec's depth bound, so an error, not a recursion.
	tooDeep := &frame{kind: kindData, from: "a", items: []item{{tuple: data.NewTuple("p", deepList(64))}}}
	if b, err := tooDeep.seal(new(roundScratch), sealers["rsa"], "b"); err == nil {
		f.Add(b)
	}
	// Real rounds of 2, 3 and 5 frames under the RSA tree tag, and every
	// forged-path shape of each.
	for _, k := range []int{2, 3, 5} {
		var round []outFrame
		for i := 0; i < k; i++ {
			round = append(round, saidFrame("a", "b", strconv.Itoa(i)))
		}
		for _, d := range sealRound(f, sealers["rsa"], "a", round...) {
			f.Add(d)
			for _, bad := range treeTagVariants(f, d, 512/8) {
				f.Add(bad)
			}
		}
	}
	// Condensed frames: two items sharing a root, one on the shared
	// suffix and one with none; a node referencing the node after it; an
	// item ref past the table.
	for _, cf := range []*frame{
		condensedFrame(condensedTable, 4, 4, 3, 0),
		condensedFrame([]byte{1, 1, 'a', 2, 0, 0, 3, 0, 0, 1}, 2),
		condensedFrame(condensedTable, 5),
	} {
		if b, err := cf.seal(new(roundScratch), sealers["rsa"], "b"); err == nil {
			f.Add(b)
		}
	}
	f.Add(hostileCount(8<<20, 64))
	f.Add([]byte{})
	f.Add([]byte{kindData})
	f.Add([]byte{kindRetract, 0})
	f.Add([]byte{kindHandshake, 1})
	f.Add([]byte{kindToken, 0, 0})

	// The fixtures' names, so decoding also takes the table's hits.
	syms := data.NewSymbols([]string{"a", "b", "p", "q", "link", "path"})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b, syms)
		if err != nil {
			return
		}
		_ = fr.open(sealers["rsa"], "b")
		_ = fr.open(sealers["session"], "b")
	})
}
