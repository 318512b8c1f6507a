package fleet

import (
	"bytes"
	"io"
	"math"

	"repro/internal/wire"
)

// The gather form is the fingerprint listing a shard sends the gateway:
// the FingerprintsView the JSON listing carries, field for field, as a
// 4-byte magic and unsigned varints. Decoding rebuilds the same structs
// without deriving any field, so the gateway's views over the decoded
// listings equal a single node's views over its own fingerprints.
//
//	listing     = magic sessions count fingerprint*
//	fingerprint = session sessions refs weight count stream*
//	stream      = len(seq) seq* length freq weight sessions
//
// A string is its byte length, then its bytes. An empty list decodes as
// an empty slice, as the JSON listing's [] does.
var gatherMagic = [4]byte{'F', 'P', 'G', '1'}

// EncodeFingerprints writes v in the gather form.
func EncodeFingerprints(w io.Writer, v FingerprintsView) error {
	ww := wire.NewWriter(w, gatherMagic)
	ww.Uvarint(uint64(v.Sessions))
	ww.Uvarint(uint64(len(v.Fingerprints)))
	for _, f := range v.Fingerprints {
		ww.String(f.Session)
		ww.Uvarint(uint64(f.Sessions))
		ww.Uvarint(f.Refs)
		ww.Uvarint(f.Weight)
		ww.Uvarint(uint64(len(f.Streams)))
		for _, s := range f.Streams {
			ww.Uvarint(uint64(len(s.Seq)))
			for _, v := range s.Seq {
				ww.Uvarint(v)
			}
			ww.Uvarint(uint64(s.Length))
			ww.Uvarint(s.Freq)
			ww.Uvarint(s.Weight)
			ww.Uvarint(uint64(s.Sessions))
		}
	}
	_, err := ww.Close()
	return err
}

// DecodeFingerprints reads a listing written by EncodeFingerprints. Every
// list and string takes at least one byte per element, so no count may
// exceed the body's length; an int field must fit in an int. Truncated
// input and trailing bytes are errors.
func DecodeFingerprints(b []byte) (FingerprintsView, error) {
	rd := wire.NewReader(bytes.NewReader(b), "fleet: fingerprint listing", gatherMagic)
	most := uint64(len(b))
	v := FingerprintsView{Sessions: int(rd.Count("sessions", math.MaxInt))}
	// Sequences are cut from shared chunks of symbols, so a listing costs
	// a few allocations per fingerprint, not one per stream.
	var syms []uint64
	v.Fingerprints = make([]*Fingerprint, rd.Count("fingerprint count", most))
	for i := range v.Fingerprints {
		if rd.Err() != nil {
			break
		}
		f := &Fingerprint{
			Session:  rd.String("session", most),
			Sessions: int(rd.Count("fingerprint sessions", math.MaxInt)),
			Refs:     rd.Uvarint("refs"),
			Weight:   rd.Uvarint("weight"),
			Streams:  make([]Stream, rd.Count("stream count", most)),
		}
		for j := range f.Streams {
			if rd.Err() != nil {
				break
			}
			s := &f.Streams[j]
			n := int(rd.Count("sequence length", most))
			if syms == nil || len(syms) < n {
				syms = make([]uint64, max(n, 4096))
			}
			s.Seq, syms = syms[:n:n], syms[n:]
			for k := range s.Seq {
				s.Seq[k] = rd.Uvarint("symbol")
			}
			s.Length = int(rd.Count("length", math.MaxInt))
			s.Freq = rd.Uvarint("freq")
			s.Weight = rd.Uvarint("stream weight")
			s.Sessions = int(rd.Count("stream sessions", math.MaxInt))
		}
		v.Fingerprints[i] = f
	}
	rd.End()
	if err := rd.Err(); err != nil {
		return FingerprintsView{}, err
	}
	return v, nil
}
