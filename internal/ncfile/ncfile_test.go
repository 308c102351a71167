package ncfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"extremenc/internal/rlnc"
)

func testPayload(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	for _, size := range []int{1, 100, p.SegmentSize(), 3*p.SegmentSize() - 7} {
		for _, seeded := range []bool{false, true} {
			payload := testPayload(t, size, int64(size))
			var container bytes.Buffer
			esum, err := Encode(&container, bytes.NewReader(payload), p,
				EncodeOptions{Seeded: seeded, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if esum.Records == 0 || esum.PayloadBytes != int64(size) {
				t.Fatalf("summary %+v", esum)
			}
			var out bytes.Buffer
			dsum, err := Decode(&out, bytes.NewReader(container.Bytes()))
			if err != nil {
				t.Fatalf("size %d seeded %v: %v", size, seeded, err)
			}
			if !bytes.Equal(out.Bytes(), payload) {
				t.Fatalf("size %d seeded %v: payload differs", size, seeded)
			}
			if dsum.CorruptRecords != 0 {
				t.Fatalf("clean container reported %d corrupt records", dsum.CorruptRecords)
			}
		}
	}
}

func TestSeededContainerIsSmaller(t *testing.T) {
	p := rlnc.Params{BlockCount: 64, BlockSize: 256}
	payload := testPayload(t, p.SegmentSize(), 3)
	var plain, seeded bytes.Buffer
	if _, err := Encode(&plain, bytes.NewReader(payload), p, EncodeOptions{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(&seeded, bytes.NewReader(payload), p, EncodeOptions{Seeded: true, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	// Every record carries a 4-byte index in place of its 64 coefficients;
	// the header carries the 8-byte key once.
	records := (plain.Len() - headerLen) / (4 + rlnc.WireSize(p))
	if want := plain.Len() - records*(p.BlockCount-4) + keyLen; seeded.Len() != want {
		t.Fatalf("seeded container %d B, want %d B (plain %d B, %d records)", seeded.Len(), want, plain.Len(), records)
	}
}

// TestPlainContainerUnchanged: an unseeded container is still a version 1
// container of XNC1 records, byte for byte, and it decodes.
func TestPlainContainerUnchanged(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	payload := testPayload(t, 2*p.SegmentSize()-3, 13)
	var container bytes.Buffer
	if _, err := Encode(&container, bytes.NewReader(payload), p, EncodeOptions{Seed: 14}); err != nil {
		t.Fatal(err)
	}
	const want = "39efc3896fb8490a9dd656675d44bc26951096f838b9a5651d949cc21e1b0aad"
	if sum := sha256.Sum256(container.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("version 1 container bytes changed: digest %x", sum)
	}
	var out bytes.Buffer
	if _, err := Decode(&out, bytes.NewReader(container.Bytes())); err != nil || !bytes.Equal(out.Bytes(), payload) {
		t.Fatalf("version 1 container does not decode: %v", err)
	}
}

func TestDecodeSurvivesDamage(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 128}
	payload := testPayload(t, 2*p.SegmentSize()-5, 5)
	var container bytes.Buffer
	if _, err := Encode(&container, bytes.NewReader(payload), p,
		EncodeOptions{Redundancy: 1.6, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	var damaged bytes.Buffer
	csum, err := Corrupt(&damaged, bytes.NewReader(container.Bytes()),
		CorruptOptions{DropRate: 0.15, FlipRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if csum.Dropped == 0 || csum.Flipped == 0 {
		t.Fatalf("corruption summary %+v", csum)
	}
	var out bytes.Buffer
	dsum, err := Decode(&out, bytes.NewReader(damaged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dsum.CorruptRecords != csum.Flipped {
		t.Fatalf("corrupt records %d, flipped %d", dsum.CorruptRecords, csum.Flipped)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload differs after damage + decode")
	}
}

func TestDecodeUnrecoverable(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 128}
	payload := testPayload(t, p.SegmentSize(), 8)
	var container bytes.Buffer
	if _, err := Encode(&container, bytes.NewReader(payload), p,
		EncodeOptions{Redundancy: 1.0, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// With zero redundancy margin, any drop is fatal.
	var damaged bytes.Buffer
	if _, err := Corrupt(&damaged, bytes.NewReader(container.Bytes()),
		CorruptOptions{DropRate: 0.3, Seed: 10}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Decode(&out, bytes.NewReader(damaged.Bytes())); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}

	// Segments 1 to 3 of five each lose one record: the error names segment
	// 1, the lowest one that cannot be recovered, every time.
	payload = testPayload(t, 5*p.SegmentSize(), 15)
	container.Reset()
	if _, err := Encode(&container, bytes.NewReader(payload), p, EncodeOptions{Redundancy: 1.0, Seed: 16}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(container.Bytes())
	h, err := readHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	damaged.Reset()
	if err := writeHeader(&damaged, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, err := readRecord(r, nil)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seg := i / p.BlockCount; seg >= 1 && seg <= 3 && i%p.BlockCount == 0 {
			continue
		}
		if err := writeRecord(&damaged, rec); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		_, err := Decode(&out, bytes.NewReader(damaged.Bytes()))
		if !errors.Is(err, ErrUnrecoverable) || !strings.Contains(err.Error(), "segment 1 at rank 15/16") {
			t.Fatalf("err = %v, want ErrUnrecoverable naming segment 1 at rank 15/16", err)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 32}
	payload := testPayload(t, 64, 11)
	var container bytes.Buffer
	if _, err := Encode(&container, bytes.NewReader(payload), p, EncodeOptions{Seed: 12}); err != nil {
		t.Fatal(err)
	}
	good := container.Bytes()

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'Y'
		if _, err := Decode(&bytes.Buffer{}, bytes.NewReader(bad)); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("header bitflip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[10] ^= 0xFF
		if _, err := Decode(&bytes.Buffer{}, bytes.NewReader(bad)); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := Decode(&bytes.Buffer{}, bytes.NewReader(good[:10])); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		if _, err := Decode(&bytes.Buffer{}, bytes.NewReader(good[:len(good)-3])); err == nil {
			t.Fatal("truncated record accepted")
		}
	})
}

func TestEncodeValidation(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 32}
	if _, err := Encode(&bytes.Buffer{}, bytes.NewReader(nil), p, EncodeOptions{Redundancy: 0.5}); err == nil {
		t.Fatal("redundancy < 1 accepted")
	}
	if _, err := Corrupt(&bytes.Buffer{}, bytes.NewReader(nil), CorruptOptions{DropRate: -1}); err == nil {
		t.Fatal("negative drop rate accepted")
	}
}

// FuzzDecodeContainer: arbitrary bytes must never panic the container
// reader; valid headers with garbage records must fail cleanly.
func FuzzDecodeContainer(f *testing.F) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 16}
	payload := make([]byte, 2*p.SegmentSize())
	rand.New(rand.NewSource(1)).Read(payload)
	var good bytes.Buffer
	if _, err := Encode(&good, bytes.NewReader(payload), p, EncodeOptions{Seed: 2}); err != nil {
		f.Fatal(err)
	}
	var seeded bytes.Buffer
	if _, err := Encode(&seeded, bytes.NewReader(payload), p, EncodeOptions{Seeded: true, Seed: 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("XNCF"))
	f.Add(good.Bytes()[:headerLen])
	f.Add(seeded.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		sum, err := Decode(&out, bytes.NewReader(data))
		if err != nil {
			return
		}
		if int64(out.Len()) != sum.Header.Length {
			t.Fatalf("decoded %d bytes, header claims %d", out.Len(), sum.Header.Length)
		}
	})
}

// BenchmarkContainerRoundTrip measures real encode+decode throughput of the
// coded file container on this machine.
func BenchmarkContainerRoundTrip(b *testing.B) {
	p := rlnc.Params{BlockCount: 32, BlockSize: 4096}
	payload := testPayload(b, 8*p.SegmentSize(), 10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var container bytes.Buffer
		if _, err := Encode(&container, bytes.NewReader(payload), p, EncodeOptions{Seed: 11}); err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := Decode(&out, bytes.NewReader(container.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
