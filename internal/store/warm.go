package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"temporalkcore/internal/phc"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// The warm file ("TKCC1" format) spills the serving cache's resident
// entries for the sequence being snapshotted, so the first repeat query
// after a restart hits the warm path instead of re-running its CoreTime or
// PHC build. It is advisory: any decode or CRC problem just stops the load
// (the entries rebuild on miss), and entries are re-admitted only when
// their key's sequence equals the recovered graph's — for PHC entries the
// full fingerprint is additionally verified against the recovered state.
//
// File layout:
//
//	"TKCC1\n"  magic
//	seq        int64 LE — the snapshot sequence the spill belongs to
//	frames     [payloadLen uint32][crc32(payload) uint32][payload]...
//
// Frame payload:
//
//	algo       uint8  — qcache.AlgoEnum | qcache.AlgoPHC
//	k          int64
//	wstart     int64  — compressed window of the cache key
//	wend       int64
//	seq        int64  — Key.Seq of the entry
//	coreTimeNs int64  — the build cost the entry recorded
//	ixLen      uint32 — length of the first table blob
//	blobs      AlgoEnum: [VCTX1 of ixLen bytes][ECSX1 to end]
//	           AlgoPHC:  [PHCX2 of ixLen bytes]
const warmMagic = "TKCC1\n"

// maxWarmFrame bounds one entry's serialized size (plausibility check).
const maxWarmFrame = 1 << 30

// WriteWarm spills every resident cache entry keyed to the pending
// snapshot's sequence into warm-<seq>.tkcc (atomically), returning the
// number of entries written. Entries of other sequences are useless after
// recovery and are skipped. A nil cache writes nothing.
func (p *Pending) WriteWarm(c *qcache.Cache) (int, error) {
	if c == nil {
		return 0, nil
	}
	type spilled struct {
		key qcache.Key
		ent *qcache.Entry
	}
	var warm []spilled
	c.Dump(func(k qcache.Key, e *qcache.Entry) bool {
		if k.Seq == p.seq {
			warm = append(warm, spilled{k, e})
		}
		return true
	})
	if len(warm) == 0 {
		return 0, nil
	}

	written := 0
	err := writeFileAtomic(p.s.warmPath(p.seq), func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<16)
		if _, err := bw.WriteString(warmMagic); err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(p.seq))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		var payload bytes.Buffer
		for _, s := range warm {
			payload.Reset()
			n, err := encodeWarmEntry(&payload, s.key, s.ent)
			if err != nil || !n {
				continue // entry kind we cannot serialize; skip
			}
			pb := payload.Bytes()
			var fh [8]byte
			binary.LittleEndian.PutUint32(fh[0:4], uint32(len(pb)))
			binary.LittleEndian.PutUint32(fh[4:8], crc32.ChecksumIEEE(pb))
			if _, err := bw.Write(fh[:]); err != nil {
				return err
			}
			if _, err := bw.Write(pb); err != nil {
				return err
			}
			written++
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, fmt.Errorf("store: writing warm spill: %w", err)
	}
	return written, nil
}

// encodeWarmEntry serializes one cache entry; ok is false for entry shapes
// the spill does not cover.
func encodeWarmEntry(buf *bytes.Buffer, key qcache.Key, ent *qcache.Entry) (ok bool, err error) {
	var ix bytes.Buffer
	switch key.Algo {
	case qcache.AlgoEnum:
		if ent.Ix == nil || ent.Ecs == nil {
			return false, nil
		}
		if err := ent.Ix.Encode(&ix); err != nil {
			return false, err
		}
	case qcache.AlgoPHC:
		if ent.Phc == nil {
			return false, nil
		}
		if err := ent.Phc.Encode(&ix); err != nil {
			return false, err
		}
	default:
		return false, nil
	}
	buf.WriteByte(key.Algo)
	var h [8]byte
	for _, v := range []int64{int64(key.K), int64(key.W.Start), int64(key.W.End), key.Seq, int64(ent.CoreTime)} {
		binary.LittleEndian.PutUint64(h[:], uint64(v))
		buf.Write(h[:])
	}
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(ix.Len()))
	buf.Write(l[:])
	buf.Write(ix.Bytes())
	if key.Algo == qcache.AlgoEnum {
		if err := ent.Ecs.Encode(buf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// LoadWarm re-admits spilled cache entries whose sequence matches the
// recovered graph exactly. PHC entries are additionally fingerprint-checked
// against the recovered state and reported through onPHC (which the public
// layer uses to seed the patch oracle); onPHC may be nil. The load is
// advisory: a missing or damaged warm file admits fewer (or zero) entries
// and returns no error, but a present-and-readable file reports how many
// entries it admitted.
func (s *Store) LoadWarm(c *qcache.Cache, onPHC func(*phc.Index)) (admitted int, err error) {
	if c == nil || s.g == nil {
		return 0, nil
	}
	cur := s.Seq()
	f, err := os.Open(s.warmPath(cur))
	if err != nil {
		return 0, nil // no spill for this exact state: cold start
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	magic := make([]byte, len(warmMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != warmMagic {
		return 0, nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil
	}
	if int64(binary.LittleEndian.Uint64(hdr[:])) != cur {
		return 0, nil // file body disagrees with its name; distrust it
	}

	for {
		var fh [8]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return admitted, nil // clean end or torn tail: stop
		}
		plen := binary.LittleEndian.Uint32(fh[0:4])
		want := binary.LittleEndian.Uint32(fh[4:8])
		if plen < 45 || plen > maxWarmFrame {
			return admitted, nil
		}
		p := make([]byte, plen)
		if _, err := io.ReadFull(br, p); err != nil {
			return admitted, nil
		}
		if crc32.ChecksumIEEE(p) != want {
			return admitted, nil
		}
		if s.admitWarmEntry(c, p, cur, onPHC) {
			admitted++
		}
	}
}

// admitWarmEntry decodes one frame payload and inserts it when it matches
// the recovered state.
func (s *Store) admitWarmEntry(c *qcache.Cache, p []byte, cur int64, onPHC func(*phc.Index)) bool {
	algo := p[0]
	rd := func(i int) int64 { return int64(binary.LittleEndian.Uint64(p[1+8*i : 9+8*i])) }
	key := qcache.Key{
		Seq:  rd(3),
		K:    int(rd(0)),
		W:    tgraph.Window{Start: tgraph.TS(rd(1)), End: tgraph.TS(rd(2))},
		Algo: algo,
	}
	coreTime := time.Duration(rd(4))
	if key.Seq != cur || key.W.End > s.g.TMax() {
		return false
	}
	ixLen := int(binary.LittleEndian.Uint32(p[41:45]))
	if 45+ixLen > len(p) {
		return false
	}
	blob := p[45 : 45+ixLen]
	rest := p[45+ixLen:]

	switch algo {
	case qcache.AlgoEnum:
		ix, err := vct.DecodeIndex(bytes.NewReader(blob))
		if err != nil || ix.K != key.K || ix.Range != key.W || ix.NumVertices() != s.g.NumVertices() {
			return false
		}
		ecs, err := vct.DecodeECS(bytes.NewReader(rest))
		if err != nil || ecs.K != key.K || ecs.Range != key.W {
			return false
		}
		lo, hi := ecs.EdgeRange()
		if wlo, whi := s.g.EdgesIn(key.W); lo != wlo || hi != whi {
			return false
		}
		c.Add(key, qcache.NewEntry(ix, ecs, coreTime))
		return true
	case qcache.AlgoPHC:
		ix, err := phc.Decode(bytes.NewReader(blob))
		if err != nil || !ix.Fp.Matches(s.g) || ix.Range != key.W {
			return false
		}
		c.Add(key, qcache.NewPHCEntry(ix, coreTime))
		if onPHC != nil {
			onPHC(ix)
		}
		return true
	}
	return false
}
