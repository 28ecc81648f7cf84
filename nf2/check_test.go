package nf2_test

import (
	"errors"
	"testing"

	"complexobj/cobench"
	"complexobj/nf2"
)

// checkSchemas are the benchmark's stored tuple types; the fuzz target's
// first argument picks one.
var checkSchemas = []*nf2.TupleType{cobench.StationType, cobench.PlatformType, cobench.SightseeingType}

// checkAgrees fails t unless Check accepts data exactly when Decode does,
// and rejects it with Decode's error.
func checkAgrees(t *testing.T, tt *nf2.TupleType, data []byte) {
	t.Helper()
	_, derr := tt.Decode(data)
	cerr := tt.Check(data)
	switch {
	case (derr == nil) != (cerr == nil):
		t.Fatalf("%s: Decode err = %v, Check err = %v", tt.Name, derr, cerr)
	case derr != nil && (derr.Error() != cerr.Error() || errors.Is(derr, nf2.ErrCorrupt) != errors.Is(cerr, nf2.ErrCorrupt)):
		t.Fatalf("%s: Decode err %q, Check err %q", tt.Name, derr, cerr)
	}
}

// FuzzCheckMatchesDecode: Check returns nil exactly when Decode does, and
// otherwise the same error. The committed corpus holds encoded station,
// platform and sightseeing tuples.
func FuzzCheckMatchesDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, schema uint8, data []byte) {
		checkAgrees(t, checkSchemas[int(schema)%len(checkSchemas)], data)
	})
}

// encodedSamples encodes one station of a small extension with every
// nested tuple type: the station, its first platform and its first
// sightseeing.
func encodedSamples(t *testing.T) [][]byte {
	t.Helper()
	stations, err := cobench.Generate(cobench.DefaultConfig().WithN(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stations {
		if len(s.Platforms) == 0 || len(s.Platforms[0].Conns) == 0 || len(s.Seeings) == 0 {
			continue
		}
		tup := s.Tuple()
		var out [][]byte
		for i, enc := range []struct {
			tt  *nf2.TupleType
			tup nf2.Tuple
		}{
			{cobench.StationType, tup},
			{cobench.PlatformType, tup.Vals[cobench.StPlatforms].Tuples()[0]},
			{cobench.SightseeingType, tup.Vals[cobench.StSeeings].Tuples()[0]},
		} {
			b, err := enc.tt.Encode(enc.tup)
			if err != nil {
				t.Fatalf("encode sample %d: %v", i, err)
			}
			out = append(out, b)
		}
		return out
	}
	t.Fatal("no station with platforms, connections and sightseeings")
	return nil
}

// Every single-byte corruption of a valid encoding — a deterministic
// sweep over what the fuzz target explores at random — is rejected by
// Check exactly as by Decode.
func TestCheckMatchesDecodeOnCorruptions(t *testing.T) {
	for si, enc := range encodedSamples(t) {
		tt := checkSchemas[si]
		checkAgrees(t, tt, enc)
		if err := tt.Check(enc); err != nil {
			t.Fatalf("%s: Check rejects a valid encoding: %v", tt.Name, err)
		}
		buf := make([]byte, len(enc))
		for pos := range enc {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				copy(buf, enc)
				buf[pos] ^= flip
				checkAgrees(t, tt, buf)
			}
		}
		for cut := 0; cut < len(enc); cut += 7 {
			checkAgrees(t, tt, enc[:cut])
		}
	}
}

// Check is allocation-free on valid encodings.
func TestCheckAllocs(t *testing.T) {
	for si, enc := range encodedSamples(t) {
		tt := checkSchemas[si]
		if n := testing.AllocsPerRun(100, func() {
			if err := tt.Check(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Check allocates %.1f times per call, want 0", tt.Name, n)
		}
	}
}
