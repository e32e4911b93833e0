package vct

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"temporalkcore/internal/tgraph"
)

const ecsMagic = "ECSX1\n"

// Encode writes a compact binary form of the edge core skyline. The
// encoding is self-contained and versioned; DecodeECS reads it back.
func (e *ECS) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ecsMagic); err != nil {
		return err
	}
	hdr := []int32{
		int32(e.K),
		int32(e.Range.Start), int32(e.Range.End),
		int32(e.lo), int32(e.hi),
		int32(len(e.wins)),
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, e.off); err != nil {
		return err
	}
	flat := make([]int32, 0, 2*len(e.wins))
	for _, win := range e.wins {
		flat = append(flat, int32(win.Start), int32(win.End))
	}
	if err := binary.Write(bw, binary.LittleEndian, flat); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeECS reads a skyline written by Encode. It accepts only a skyline
// its readers can walk: a valid range with at least one edge per start
// time, as every build's has; offsets rising from 0 to the window count;
// and per edge, windows inside the range, each starting at or before its
// end, with starts and ends strictly rising. So a corrupted stream gives
// an error, never a skyline that panics CountStop, EnumerateStop or a cut,
// and a header that claims more than the stream holds fails at the
// stream's end instead of allocating the claim.
func DecodeECS(r io.Reader) (*ECS, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ecsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("vct: reading magic: %w", err)
	}
	if string(magic) != ecsMagic {
		return nil, errors.New("vct: not an ECSX1 stream")
	}
	hdr := make([]int32, 6)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("vct: reading header: %w", err)
	}
	lo, hi, nWins := int(hdr[3]), int(hdr[4]), int(hdr[5])
	rng := tgraph.Window{Start: tgraph.TS(hdr[1]), End: tgraph.TS(hdr[2])}
	if lo < 0 || hi < lo || nWins < 0 || !rng.Valid() || rng.Len() > hi-lo {
		return nil, fmt.Errorf("vct: implausible skyline: range %v, edges [%d,%d), %d windows", rng, lo, hi, nWins)
	}
	off, err := readInt32s(br, hi-lo+1)
	if err != nil {
		return nil, fmt.Errorf("vct: reading offsets: %w", err)
	}
	if off[0] != 0 || int(off[len(off)-1]) != nWins {
		return nil, errors.New("vct: corrupt skyline offset table")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, errors.New("vct: skyline offset table not monotone")
		}
	}
	flat, err := readInt32s(br, 2*nWins)
	if err != nil {
		return nil, fmt.Errorf("vct: reading windows: %w", err)
	}
	e := &ECS{K: int(hdr[0]), Range: rng, lo: tgraph.EID(lo), hi: tgraph.EID(hi), off: off, wins: make([]tgraph.Window, nWins)}
	for i := range e.wins {
		e.wins[i] = tgraph.Window{Start: tgraph.TS(flat[2*i]), End: tgraph.TS(flat[2*i+1])}
	}
	for i := 0; i < hi-lo; i++ {
		prev := tgraph.Window{Start: rng.Start - 1, End: rng.Start - 1}
		for _, win := range e.wins[off[i]:off[i+1]] {
			if win.Start <= prev.Start || win.End <= prev.End || win.Start > win.End || win.End > rng.End {
				return nil, fmt.Errorf("vct: edge %d: window %v after %v in range %v", lo+i, win, prev, rng)
			}
			prev = win
		}
	}
	return e, nil
}

// readInt32s reads n little-endian int32 values, growing its buffer as
// they arrive.
func readInt32s(r io.Reader, n int) ([]int32, error) {
	const chunk = 1 << 14
	out := make([]int32, 0, min(n, chunk))
	buf := make([]int32, min(n, chunk))
	for len(out) < n {
		part := buf[:min(n-len(out), chunk)]
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}
