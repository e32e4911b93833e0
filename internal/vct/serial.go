package vct

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"temporalkcore/internal/tgraph"
)

const indexMagic = "VCTX1\n"

// Encode writes a compact binary form of the index. The encoding is
// self-contained and versioned; DecodeIndex reads it back.
func (ix *Index) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	hdr := []int32{
		int32(ix.K),
		int32(ix.Range.Start), int32(ix.Range.End),
		int32(len(ix.off)), int32(len(ix.entries)),
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.off); err != nil {
		return err
	}
	flat := make([]int32, 0, 2*len(ix.entries))
	for _, e := range ix.entries {
		flat = append(flat, int32(e.Start), int32(e.CT))
	}
	if err := binary.Write(bw, binary.LittleEndian, flat); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeIndex reads an index written by Encode. It accepts only an index
// its readers can search: a valid range, offsets rising from 0 to the
// entry count, and per vertex, entries whose starts lie inside the range
// and whose core times lie between their start and the range's end, or
// are ∞, with starts and core times strictly rising, as a build records
// them. A header that claims more than the stream holds fails at the
// stream's end instead of allocating the claim.
func DecodeIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("vct: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, errors.New("vct: not a VCTX1 stream")
	}
	hdr := make([]int32, 5)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("vct: reading header: %w", err)
	}
	nOff, nEnt := int(hdr[3]), int(hdr[4])
	rng := tgraph.Window{Start: tgraph.TS(hdr[1]), End: tgraph.TS(hdr[2])}
	if nOff < 1 || nEnt < 0 || !rng.Valid() {
		return nil, fmt.Errorf("vct: implausible index: range %v, sizes %d/%d", rng, nOff, nEnt)
	}
	off, err := readInt32s(br, nOff)
	if err != nil {
		return nil, fmt.Errorf("vct: reading offsets: %w", err)
	}
	if off[0] != 0 || int(off[nOff-1]) != nEnt {
		return nil, errors.New("vct: corrupt offset table")
	}
	for i := 1; i < nOff; i++ {
		if off[i] < off[i-1] {
			return nil, errors.New("vct: offset table not monotone")
		}
	}
	flat, err := readInt32s(br, 2*nEnt)
	if err != nil {
		return nil, fmt.Errorf("vct: reading entries: %w", err)
	}
	ix := &Index{K: int(hdr[0]), Range: rng, off: off, entries: make([]Entry, nEnt)}
	for i := range ix.entries {
		ix.entries[i] = Entry{Start: tgraph.TS(flat[2*i]), CT: tgraph.TS(flat[2*i+1])}
	}
	for u := 0; u+1 < nOff; u++ {
		prev := Entry{Start: rng.Start - 1, CT: rng.Start - 1}
		for _, e := range ix.entries[off[u]:off[u+1]] {
			if e.Start <= prev.Start || e.CT <= prev.CT || e.Start > rng.End || e.CT < e.Start || e.CT > rng.End && e.CT != tgraph.InfTime {
				return nil, fmt.Errorf("vct: vertex %d: entry %v after %v in range %v", u, e, prev, rng)
			}
			prev = e
		}
	}
	return ix, nil
}

// NumVertices returns the number of vertices the index covers.
func (ix *Index) NumVertices() int { return len(ix.off) - 1 }
