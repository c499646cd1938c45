package diskcache

import (
	"pathflow/internal/cfg"
	"pathflow/internal/profile/stream"
)

// Stream-accumulator snapshots ride the same versioned+checksummed
// frame as every pipeline bundle, so a persisted live profile survives
// a daemon restart with the same guarantees the artifact tiers get:
// truncation, bit flips and version skew all decode as ErrCorrupt and
// the server falls back to re-seeding from the training profile.
//
// Unlike the per-stage bundles, a stream snapshot is not keyed by
// content — it is mutable state, written at shutdown and read at the
// next start — so the serving layer stores it under a name derived
// from the analysis target, not through the LRU store.

// EncodeStream encodes a stream.Set snapshot.
func EncodeStream(meta Meta, snap *stream.SetSnapshot) []byte {
	return encodeBundle(KindStream, meta, func(e *enc) {
		e.u64(snap.Epoch)
		e.u64(uint64(len(snap.Funcs)))
		for _, fs := range snap.Funcs {
			e.str(fs.Func)
			e.u64(uint64(len(fs.R)))
			for _, eid := range fs.R {
				e.i64(int64(eid))
			}
			e.u64(uint64(len(fs.Entries)))
			for _, es := range fs.Entries {
				e.u64(uint64(len(es.Edges)))
				for _, eid := range es.Edges {
					e.i64(int64(eid))
				}
				e.u64(es.Raw)
			}
		}
		e.u64(uint64(len(snap.Seqs)))
		for _, sq := range snap.Seqs {
			e.str(sq.Source)
			e.str(sq.Func)
			e.u64(sq.Seq)
		}
	})
}

// DecodeStream decodes a snapshot and restores it against prog,
// re-validating every path. Any structural defect — framing, bounds,
// invalid paths, a snapshot from a different program version — is
// ErrCorrupt (or the restore error), never a panic.
func DecodeStream(data []byte, prog *cfg.Program) (Meta, *stream.Set, error) {
	meta, snap, err := decodeBundle(KindStream, data, func(d *dec) *stream.SetSnapshot {
		snap := &stream.SetSnapshot{Epoch: d.u64()}
		nFuncs := d.sliceLen()
		for i := 0; i < nFuncs && d.err == nil; i++ {
			fs := stream.FuncSnapshot{Func: d.str()}
			nR := d.sliceLen()
			for j := 0; j < nR; j++ {
				fs.R = append(fs.R, cfg.EdgeID(d.i64()))
			}
			nE := d.sliceLen()
			for j := 0; j < nE; j++ {
				m := d.sliceLen()
				es := stream.EntrySnapshot{Edges: make([]cfg.EdgeID, 0, m)}
				for k := 0; k < m; k++ {
					es.Edges = append(es.Edges, cfg.EdgeID(d.i64()))
				}
				es.Raw = d.u64()
				fs.Entries = append(fs.Entries, es)
			}
			snap.Funcs = append(snap.Funcs, fs)
		}
		nSeqs := d.sliceLen()
		for i := 0; i < nSeqs; i++ {
			snap.Seqs = append(snap.Seqs, stream.SeqSnapshot{
				Source: d.str(), Func: d.str(), Seq: d.u64(),
			})
		}
		return snap
	})
	if err != nil {
		return Meta{}, nil, err
	}
	set, err := stream.RestoreSet(prog, snap)
	if err != nil {
		return Meta{}, nil, ErrCorrupt
	}
	return meta, set, nil
}
