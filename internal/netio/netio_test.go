package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

func testMedia(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestFetchOverPipe runs the full protocol over an in-memory connection.
func TestFetchOverPipe(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 512}
	media := testMedia(t, 3*p.SegmentSize()-99, 1)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if srv.Segments() != 3 {
		t.Fatalf("segments = %d", srv.Segments())
	}

	l := startPipeServer(t, srv)
	payload, stats, err := Fetch(context.Background(), l.Dial())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, media) {
		t.Fatal("fetched payload differs")
	}
	if stats.Records < 3*p.BlockCount {
		t.Fatalf("records = %d, need at least %d", stats.Records, 3*p.BlockCount)
	}
	if stats.Corrupt != 0 {
		t.Fatalf("corrupt records on a clean pipe: %d", stats.Corrupt)
	}
}

// TestFetchOverTCP runs the server over real loopback TCP with several
// concurrent clients and a clean shutdown.
func TestFetchOverTCP(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, 2*p.SegmentSize(), 2)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			payload, _, err := Fetch(context.Background(), conn)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(payload, media) {
				errs[i] = errors.New("payload differs")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	srv.Shutdown()
	l.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestFetchBadHandshake rejects garbage servers.
func TestFetchBadHandshake(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		server.Write(bytes.Repeat([]byte{0xAB}, protoHeaderLen))
		server.Close()
	}()
	if _, _, err := Fetch(context.Background(), client); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
}

// TestFetchSkipsCorruptRecords: a middlebox flips bytes; the client skips
// the damaged records and still finishes.
func TestFetchSkipsCorruptRecords(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, p.SegmentSize(), 3)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	client, mangler := net.Pipe()
	upstreamClient := startPipeServer(t, srv).Dial()

	// A relay that corrupts every third record's payload region, and passes
	// the client's need records up unchanged.
	go io.Copy(upstreamClient, mangler) //nolint:errcheck // ends with either pipe
	go func() {
		defer mangler.Close()
		defer upstreamClient.Close()
		buf := make([]byte, 4)
		record := 0
		for {
			if _, err := readFull(upstreamClient, buf); err != nil {
				return
			}
			n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
			if n <= 0 || n > 1<<20 {
				// First read is the session header's magic (a control
				// record, not length-prefixed): forward the record verbatim.
				body := make([]byte, 4)
				if _, err := readFull(upstreamClient, body); err != nil {
					return
				}
				rest := make([]byte, int(binary.BigEndian.Uint32(body))+4)
				if _, err := readFull(upstreamClient, rest); err != nil {
					return
				}
				if _, err := mangler.Write(append(append(buf, body...), rest...)); err != nil {
					return
				}
				continue
			}
			rec := make([]byte, n)
			if _, err := readFull(upstreamClient, rec); err != nil {
				return
			}
			record++
			if record%3 == 0 {
				rec[len(rec)/2] ^= 0x55
			}
			if _, err := mangler.Write(buf); err != nil {
				return
			}
			if _, err := mangler.Write(rec); err != nil {
				return
			}
		}
	}()

	payload, stats, err := Fetch(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, media) {
		t.Fatal("payload differs through corrupting relay")
	}
	if stats.Corrupt == 0 {
		t.Fatal("no corrupt records detected")
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServerFromConfig(nil, rlnc.Params{}, DefaultServerConfig()); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// BenchmarkFetchPipe measures real end-to-end coded transfer throughput
// (encode, frame, pipe, parse, decode) on this machine.
func BenchmarkFetchPipe(b *testing.B) {
	p := rlnc.Params{BlockCount: 32, BlockSize: 4096}
	media := testMedia(b, 4*p.SegmentSize(), 9)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	l := startPipeServer(b, srv)
	b.SetBytes(int64(len(media)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := l.Dial()
		payload, _, err := Fetch(context.Background(), conn)
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
		if len(payload) != len(media) {
			b.Fatal("short payload")
		}
	}
}
