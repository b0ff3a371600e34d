package store

import (
	"errors"
	"reflect"
	"testing"

	"oassis/internal/core"
)

// sampleRecords covers every record type the decoder accepts, the
// retired RecClassified and RecIssued included, and every field shape.
func sampleRecords() []Record {
	return []Record{
		{Type: RecSession, Note: "SELECT FACT-SETS ..."},
		{Type: RecJoin, Member: "p00", Note: "ann"},
		{Type: RecAnswer, Question: "Biking doAt Central Park", Member: "p00",
			Support: 0.75, Kind: core.KindConcrete, Counted: true},
		{Type: RecAnswer, Question: "", Member: "", Support: 0, Kind: core.KindPruning},
		{Type: RecAnswer, Question: "q with unicode ± ≤", Member: "u1",
			Support: 1, Kind: core.KindSpecialization, Counted: true},
		{Type: RecClassified, Node: "node-key-17", Significant: true},
		{Type: RecClassified, Node: "", Significant: false},
		{Type: RecIssued, Question: "Biking doAt Central Park", Member: "p01"},
		{Type: RecPlan, Note: "sha256:0123abcd"},
	}
}

func TestRecordRoundtrip(t *testing.T) {
	for _, want := range sampleRecords() {
		b := EncodeRecord(want)
		got, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(b) {
			t.Errorf("decode %+v consumed %d of %d bytes", want, n, len(b))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeRecordStream(t *testing.T) {
	recs := sampleRecords()
	var b []byte
	for _, r := range recs {
		b = append(b, EncodeRecord(r)...)
	}
	var got []Record
	for len(b) > 0 {
		r, n, err := DecodeRecord(b)
		if err != nil || n == 0 {
			t.Fatalf("stream decode: n=%d err=%v", n, err)
		}
		got = append(got, r)
		b = b[n:]
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("stream mismatch: got %d records, want %d", len(got), len(recs))
	}
}

func TestDecodeRecordEmptyAndTorn(t *testing.T) {
	if _, n, err := DecodeRecord(nil); n != 0 || err != nil {
		t.Errorf("empty input: n=%d err=%v", n, err)
	}
	full := EncodeRecord(sampleRecords()[2])
	for cut := 1; cut < len(full); cut++ {
		_, _, err := DecodeRecord(full[:cut])
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d bytes: err=%v, want torn or corrupt", cut, len(full), err)
		}
	}
}

func TestDecodeRecordCorruption(t *testing.T) {
	full := EncodeRecord(sampleRecords()[2])
	// CRC flip.
	b := append([]byte(nil), full...)
	b[5] ^= 0xFF
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("crc flip: err=%v", err)
	}
	// Payload flip.
	b = append([]byte(nil), full...)
	b[len(b)-1] ^= 0xFF
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload flip: err=%v", err)
	}
	// Oversized and zero length words.
	b = append([]byte(nil), full...)
	b[0], b[1], b[2], b[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge length: err=%v", err)
	}
	b[0], b[1], b[2], b[3] = 0, 0, 0, 0
	if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero length: err=%v", err)
	}
	// Unknown record type (re-framed with a valid CRC still fails).
	bad := Record{Type: RecordType(99), Note: "x"}
	if _, _, err := DecodeRecord(EncodeRecord(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown type: err=%v", err)
	}
}
