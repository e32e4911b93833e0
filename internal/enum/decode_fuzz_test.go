package enum_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// ecsStream hand-encodes an ECSX1 stream: the header, the offsets and the
// windows, as Encode lays them out.
func ecsStream(k, start, end, lo, hi int32, off []int32, wins ...int32) []byte {
	var b bytes.Buffer
	b.WriteString("ECSX1\n")
	binary.Write(&b, binary.LittleEndian, []int32{k, start, end, lo, hi, int32(len(wins) / 2)})
	binary.Write(&b, binary.LittleEndian, off)
	binary.Write(&b, binary.LittleEndian, wins)
	return b.Bytes()
}

// TestDecodeECSRejectsUnwalkableSkylines pins the decoder's checks: each
// stream below has valid offsets, and each skyline would panic or
// mislead CountStop, EnumerateStop or a cut.
func TestDecodeECSRejectsUnwalkableSkylines(t *testing.T) {
	off := []int32{0, 1, 1, 1, 1, 1}
	for name, data := range map[string][]byte{
		"window outside the range":    ecsStream(2, 1, 5, 0, 5, off, 9, 20),
		"window ends before start":    ecsStream(2, 1, 5, 0, 5, off, 3, 2),
		"starts not rising":           ecsStream(2, 1, 5, 0, 5, []int32{0, 2, 2, 2, 2, 2}, 2, 3, 2, 4),
		"ends not rising":             ecsStream(2, 1, 5, 0, 5, []int32{0, 2, 2, 2, 2, 2}, 1, 3, 2, 3),
		"more start times than edges": ecsStream(2, 1, 5, 0, 4, []int32{0, 0, 0, 0, 0}),
		"invalid range":               ecsStream(2, 0, 5, 0, 6, []int32{0, 0, 0, 0, 0, 0, 0}),
		"claims more than it holds":   ecsStream(2, 1, 5, 0, 1<<30, []int32{0}),
	} {
		if _, err := vct.DecodeECS(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	good := ecsStream(2, 1, 5, 0, 5, []int32{0, 2, 2, 2, 2, 3}, 1, 3, 2, 4, 5, 5)
	if _, err := vct.DecodeECS(bytes.NewReader(good)); err != nil {
		t.Fatalf("a walkable skyline: %v", err)
	}
}

// FuzzDecodeSkyline feeds arbitrary bytes to vct.DecodeECS, the reader of
// the warm cache file's skylines. A stream it accepts must re-encode byte
// for byte, and CountStop, a count split at a start time the first byte
// picks, and EnumerateStop must walk it without panicking. The seeds are
// encodings of real skylines, and the stream that decoded a window
// outside its range.
func FuzzDecodeSkyline(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		g := randomGraph(r, 8, 30, 6)
		_, ecs, err := vct.Build(g, 1+i%3, g.FullWindow())
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := ecs.Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add(ecsStream(2, 1, 5, 0, 5, []int32{0, 1, 1, 1, 1, 1}, 9, 20))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // the walk's output grows with the range cubed
		}
		ecs, err := vct.DecodeECS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := ecs.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, b.Bytes()) {
			t.Fatalf("re-encoding differs:\n got %x\nfrom %x", b.Bytes(), data)
		}
		s := &enum.Scratch{}
		cores, edges, _ := enum.CountStop(ecs, s, nil)
		if w := ecs.Range; w.End > w.Start && len(data) > 0 {
			mid := w.Start + 1 + tgraph.TS(data[0])%(w.End-w.Start)
			if c, e, _ := enum.CountSplit(ecs, s, nil, mid); c != cores || e != edges {
				t.Fatalf("count split at %d = (%d, %d), one sweep (%d, %d)", mid, c, e, cores, edges)
			}
		}
		var walk enum.CountSink
		enum.EnumerateStop(nil, ecs, &walk, s, nil)
	})
}
