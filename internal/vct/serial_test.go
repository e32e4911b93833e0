package vct_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

func TestIndexEncodeDecode(t *testing.T) {
	g := paperex.Graph()
	ix, _, err := vct.Build(g, 2, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := vct.DecodeIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != ix.K || back.Range != ix.Range || back.Size() != ix.Size() || back.NumVertices() != ix.NumVertices() {
		t.Fatalf("shape changed: %+v vs %+v", back, ix)
	}
	for u := tgraph.VID(0); u < tgraph.VID(g.NumVertices()); u++ {
		for ts := tgraph.TS(1); ts <= g.TMax(); ts++ {
			if back.CoreTime(u, ts) != ix.CoreTime(u, ts) {
				t.Fatalf("CT_%d(v%d) changed after round trip", ts, u)
			}
		}
	}
}

func TestDecodeIndexRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOPE",
		"VCTX1\n", // header missing
	}
	for _, c := range cases {
		if _, err := vct.DecodeIndex(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Corrupt the offset table: flip a byte in a valid stream.
	g := paperex.Graph()
	ix, _, err := vct.Build(g, 2, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Offsets start after magic (6 bytes) + 5 int32 header (20 bytes).
	data[6+20] = 0xFF
	if _, err := vct.DecodeIndex(bytes.NewReader(data)); err == nil {
		t.Error("corrupt offset table accepted")
	}
}

// TestDecodeIndexRejectsUnsearchableEntries pins the entry checks: each
// stream below has a valid offset table, and each index would mislead
// CoreTime's and CutSize's binary searches.
func TestDecodeIndexRejectsUnsearchableEntries(t *testing.T) {
	stream := func(start, end int32, ents ...int32) []byte {
		var b bytes.Buffer
		b.WriteString("VCTX1\n")
		binary.Write(&b, binary.LittleEndian, []int32{2, start, end, 2, int32(len(ents) / 2)})
		binary.Write(&b, binary.LittleEndian, []int32{0, int32(len(ents) / 2)})
		binary.Write(&b, binary.LittleEndian, ents)
		return b.Bytes()
	}
	inf := int32(tgraph.InfTime)
	for name, data := range map[string][]byte{
		"start outside the range":    stream(1, 5, 7, 8),
		"core time past the range":   stream(1, 5, 1, 6),
		"core time before its start": stream(1, 5, 3, 2),
		"starts not rising":          stream(1, 5, 2, 3, 2, 4),
		"core times not rising":      stream(1, 5, 1, 3, 2, 3),
		"invalid range":              stream(0, 5, 1, 3),
	} {
		if _, err := vct.DecodeIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := vct.DecodeIndex(bytes.NewReader(stream(1, 5, 1, 3, 2, 5, 4, inf))); err != nil {
		t.Fatalf("a searchable index: %v", err)
	}
}
