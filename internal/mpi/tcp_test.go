package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// startTCPWorld spins up an n-node loopback mesh and returns the connected
// nodes. Cleanup closes every node.
func startTCPWorld(t *testing.T, n int) []*TCPNode {
	t.Helper()
	nodes := make([]*TCPNode, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		node, err := ListenTCP(r, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[r] = node
		addrs[r] = node.Addr()
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *TCPNode) {
			defer wg.Done()
			errs <- nd.Connect(addrs, 5*time.Second)
		}(node)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

func TestTCPValidation(t *testing.T) {
	if _, err := ListenTCP(3, 2, "127.0.0.1:0"); err == nil {
		t.Fatal("bad rank accepted")
	}
	node, err := ListenTCP(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Connect([]string{"x"}, time.Second); err == nil {
		t.Fatal("wrong address count accepted")
	}
}

func TestTCPPointToPoint(t *testing.T) {
	nodes := startTCPWorld(t, 3)
	comms := make([]*Comm, 3)
	for i, nd := range nodes {
		c, err := nd.WorldComm()
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			errs <- func() error {
				next := (c.Rank() + 1) % 3
				prev := (c.Rank() + 2) % 3
				if err := c.Send(next, 1, []byte{byte(c.Rank())}); err != nil {
					return err
				}
				m, err := c.Recv(prev, 1)
				if err != nil {
					return err
				}
				if int(m.Data[0]) != prev {
					return fmt.Errorf("rank %d got %d", c.Rank(), m.Data[0])
				}
				return nil
			}()
		}(comms[r])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPSelfSend(t *testing.T) {
	nodes := startTCPWorld(t, 2)
	c, err := nodes[0].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(0, 3, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "loop" {
		t.Fatalf("self send got %q", m.Data)
	}
}

func TestTCPCollectivesAndSplit(t *testing.T) {
	nodes := startTCPWorld(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *TCPNode) {
			defer wg.Done()
			errs <- func() error {
				c, err := nd.WorldComm()
				if err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				parts, err := c.Allgather([]byte{byte(c.Rank() * 2)})
				if err != nil {
					return err
				}
				for r, p := range parts {
					if int(p[0]) != 2*r {
						return fmt.Errorf("allgather part %d = %d", r, p[0])
					}
				}
				sub, err := c.Split(c.Rank()/2, c.Rank())
				if err != nil {
					return err
				}
				sum, err := sub.Allreduce([]float64{float64(c.Rank())}, OpSum)
				if err != nil {
					return err
				}
				want := 1.0 // ranks {0,1} or {2,3}
				if c.Rank() >= 2 {
					want = 5
				}
				if sum[0] != want {
					return fmt.Errorf("rank %d sub sum %v want %v", c.Rank(), sum[0], want)
				}
				return nil
			}()
		}(nd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPLargeMessage(t *testing.T) {
	nodes := startTCPWorld(t, 2)
	c0, _ := nodes[0].WorldComm()
	c1, _ := nodes[1].WorldComm()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	go func() {
		m, err := c1.Recv(0, 8)
		if err != nil {
			done <- err
			return
		}
		for i := range m.Data {
			if m.Data[i] != byte(i*31) {
				done <- fmt.Errorf("corruption at byte %d", i)
				return
			}
		}
		done <- nil
	}()
	if err := c0.Send(1, 8, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	nodes := startTCPWorld(t, 2)
	c, _ := nodes[0].WorldComm()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(1, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	nodes[0].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("got %v want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	if err := c.Send(1, 0, nil); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestTCPConnectTimeout(t *testing.T) {
	// Rank 1 dials rank 0 at an address where nothing listens.
	node, err := ListenTCP(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = node.Connect([]string{"127.0.0.1:1", node.Addr()}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("connect to dead address succeeded")
	}
}

// startTCPWorldOpts is startTCPWorld with explicit transport options.
func startTCPWorldOpts(t *testing.T, n int, opts TCPOptions) []*TCPNode {
	t.Helper()
	nodes := make([]*TCPNode, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		node, err := ListenTCPOpts(r, n, "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[r] = node
		addrs[r] = node.Addr()
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, node := range nodes {
		wg.Add(1)
		go func(nd *TCPNode) {
			defer wg.Done()
			errs <- nd.Connect(addrs, 5*time.Second)
		}(node)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

func TestTCPReconnect(t *testing.T) {
	nodes := startTCPWorldOpts(t, 2, TCPOptions{
		WriteTimeout:      2 * time.Second,
		ReconnectAttempts: 5,
		ReconnectBackoff:  5 * time.Millisecond,
		DialTimeout:       2 * time.Second,
	})
	c0, err := nodes[0].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := nodes[1].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 5, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if m, err := c1.Recv(0, 5); err != nil || string(m.Data) != "before" {
		t.Fatalf("pre-break message: %v %v", m, err)
	}

	// Sever the link from rank 0's side; the next send must notice the
	// broken pipe, re-dial rank 1, and deliver the frame.
	nodes[0].mu.Lock()
	conn := nodes[0].conns[1]
	nodes[0].mu.Unlock()
	conn.Close()

	if err := c0.Send(1, 5, []byte("after")); err != nil {
		t.Fatalf("send after break: %v", err)
	}
	m, err := c1.RecvTimeout(0, 5, 5*time.Second)
	if err != nil || string(m.Data) != "after" {
		t.Fatalf("post-reconnect message: %v %v", m, err)
	}

	// The replacement connection works in both directions.
	if err := c1.Send(0, 6, []byte("reply")); err != nil {
		t.Fatalf("reverse send: %v", err)
	}
	m, err = c0.RecvTimeout(1, 6, 5*time.Second)
	if err != nil || string(m.Data) != "reply" {
		t.Fatalf("reverse message: %v %v", m, err)
	}
}

// TestTCPFramesAcrossReconnect: a frame is its header and the payload
// written together, so every size — zero-length included — must arrive
// whole and in order, before and after the link breaks and the sender
// re-dials and resends the whole frame.
func TestTCPFramesAcrossReconnect(t *testing.T) {
	nodes := startTCPWorldOpts(t, 2, TCPOptions{
		WriteTimeout:      2 * time.Second,
		ReconnectAttempts: 5,
		ReconnectBackoff:  5 * time.Millisecond,
		DialTimeout:       2 * time.Second,
	})
	c0, err := nodes[0].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := nodes[1].WorldComm()
	if err != nil {
		t.Fatal(err)
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	sizes := []int{0, 1, 0, 17, 1 << 20, 0}
	roundTrip := func(phase string) {
		t.Helper()
		for i, n := range sizes {
			if err := c0.Multicast([]int{1}, 9, payload(n)); err != nil {
				t.Fatalf("%s: frame %d (%d B): %v", phase, i, n, err)
			}
		}
		for i, n := range sizes {
			m, err := c1.RecvTimeout(0, 9, 5*time.Second)
			if err != nil {
				t.Fatalf("%s: frame %d (%d B): %v", phase, i, n, err)
			}
			if !bytes.Equal(m.Data, payload(n)) {
				t.Fatalf("%s: frame %d arrived as %d B, want %d B as sent", phase, i, len(m.Data), n)
			}
		}
	}
	roundTrip("before the break")
	nodes[0].mu.Lock()
	conn := nodes[0].conns[1]
	nodes[0].mu.Unlock()
	conn.Close()
	roundTrip("after the break")
}
