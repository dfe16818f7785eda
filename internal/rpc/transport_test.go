package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

type echoPayload struct {
	N int
	S string
}

// tagEcho is a wire tag no product type claims.
const tagEcho byte = 200

func (p *echoPayload) AppendWire(b []byte) ([]byte, error) {
	return AppendString(AppendInt(b, int64(p.N)), p.S), nil
}

func init() {
	RegisterWireType(tagEcho, func(r *WireReader) *echoPayload {
		return &echoPayload{N: int(r.Int()), S: r.Str()}
	})
}

// startServerNet registers handler at addr on a fresh network and
// serves it over a loopback TCP listener.
func startServerNet(t *testing.T, addr string, handler Handler) (*Network, *Transport) {
	t.Helper()
	n := NewNetwork(0, nil)
	if _, err := n.Register(addr, handler, ServerConfig{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	tr := ServeTCP(n, lis)
	t.Cleanup(func() { tr.Close(); n.Close() })
	return n, tr
}

func TestTransportRoundTrip(t *testing.T) {
	_, tr := startServerNet(t, "echo", func(ctx context.Context, method string, payload any) (any, error) {
		p := payload.(*echoPayload)
		return &echoPayload{N: p.N + 1, S: p.S + "-" + method}, nil
	})

	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("echo", tr.Addr().String())

	v, err := client.Call(context.Background(), "echo", "bump", &echoPayload{N: 41, S: "x"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	got := v.(*echoPayload)
	if got.N != 42 || got.S != "x-bump" {
		t.Fatalf("got %+v", got)
	}
}

func TestTransportPrefixStrip(t *testing.T) {
	_, tr := startServerNet(t, "tsd/tsd-1", func(ctx context.Context, method string, payload any) (any, error) {
		return "ok", nil
	})

	client := NewNetwork(0, nil)
	defer client.Close()
	// A "/"-terminated prefix namespaces the remote address space.
	client.AddRoute("store-1/", tr.Addr().String())

	if _, err := client.Call(context.Background(), "store-1/tsd/tsd-1", "q", nil); err != nil {
		t.Fatalf("stripped route: %v", err)
	}
	// Unrouted addresses still fail fast.
	if _, err := client.Call(context.Background(), "store-2/tsd/tsd-1", "q", nil); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("want ErrUnknownAddr, got %v", err)
	}
}

func TestTransportWireErrors(t *testing.T) {
	sentinel := errors.New("transport_test: fenced")
	RegisterWireError(sentinel)
	_, tr := startServerNet(t, "srv", func(ctx context.Context, method string, payload any) (any, error) {
		switch method {
		case "fenced":
			return nil, fmt.Errorf("wrapped: %w", sentinel)
		case "plain":
			return nil, errors.New("plain failure")
		default:
			return nil, nil
		}
	})

	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("srv", tr.Addr().String())

	_, err := client.Call(context.Background(), "srv", "fenced", nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("sentinel should survive the wire, got %v", err)
	}
	if want := "wrapped: transport_test: fenced"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	_, err = client.Call(context.Background(), "srv", "plain", nil)
	if err == nil || err.Error() != "plain failure" {
		t.Fatalf("plain error: %v", err)
	}
	// Unknown remote address maps back to ErrUnknownAddr.
	_, err = client.Call(context.Background(), "srv", "x", nil)
	if err != nil {
		t.Fatalf("nil result round trip: %v", err)
	}
}

func TestTransportConcurrentPipelining(t *testing.T) {
	_, tr := startServerNet(t, "slow", func(ctx context.Context, method string, payload any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return payload, nil
	})
	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("slow", tr.Addr().String())

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := client.Call(context.Background(), "slow", "m", &echoPayload{N: i})
			if err != nil {
				errs <- err
				return
			}
			if v.(*echoPayload).N != i {
				errs <- fmt.Errorf("mismatched response: got %d want %d", v.(*echoPayload).N, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTransportDeadlinePropagates(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, tr := startServerNet(t, "hang", func(ctx context.Context, method string, payload any) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	})
	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("hang", tr.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Call(ctx, "hang", "m", nil)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline did not propagate; took %v", time.Since(start))
	}
}

func TestTransportPeerCrashFailsFast(t *testing.T) {
	_, tr := startServerNet(t, "up", func(ctx context.Context, method string, payload any) (any, error) {
		return "ok", nil
	})
	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("up", tr.Addr().String())
	if _, err := client.Call(context.Background(), "up", "m", nil); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	tr.Close()
	// The pooled connection is dead: calls fail with a down-class
	// error (immediately or after a failed redial), never hang.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := client.Call(context.Background(), "up", "m", nil)
		if errors.Is(err, ErrServerDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want ErrServerDown-class error, got %v", err)
		}
	}
}

// TestTransportDoesNotReforward: a node routes its own name to its own
// listener (sentinel joinFabric), so once the service behind that name
// is removed a frame for it must fail where it lands — one hop —
// instead of being forwarded to itself until the deadline.
func TestTransportDoesNotReforward(t *testing.T) {
	n := NewNetwork(0, nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := ServeTCP(n, lis)
	t.Cleanup(func() { tr.Close(); n.Close() })
	n.AddRoute("bus/self", tr.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = n.Call(ctx, "bus/self", "fetch", nil)
	if !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("the call took %v: it looped until its budget ran out", time.Since(start))
	}
	// One dispatch by the caller, one for the single frame served.
	if got := n.Calls.Value(); got != 2 {
		t.Fatalf("Calls = %d, want 2 (the caller's, and one frame served)", got)
	}

	// A registered server still answers through the same self-route.
	if _, err := n.Register("bus/self2", func(context.Context, string, any) (any, error) { return "ok", nil }, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	n.AddRoute("self/", tr.Addr().String())
	if v, err := n.Call(ctx, "self/bus/self2", "fetch", nil); err != nil || v != "ok" {
		t.Fatalf("prefixed self-route: %v, %v", v, err)
	}
}
