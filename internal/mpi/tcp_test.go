package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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
				if err := sub.Barrier(); err != nil {
					return err
				}
				got, err := sub.Allgather([]byte{byte(c.Rank())})
				if err != nil {
					return err
				}
				first := c.Rank() &^ 1 // ranks {0,1} or {2,3}
				if len(got) != 2 || int(got[0][0]) != first || int(got[1][0]) != first+1 {
					return fmt.Errorf("rank %d sub allgather %v want [[%d] [%d]]", c.Rank(), got, first, first+1)
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

// TestTCPMulticastSkipsDeadPeer: once a send has spent a closed peer's
// reconnect budget, the peer is dead — a Multicast skips it at once and
// still delivers to the live rank listed after it — until a replacement
// node for that rank dials back in.
func TestTCPMulticastSkipsDeadPeer(t *testing.T) {
	opts := HardenedTCPOptions()
	nodes := startTCPWorldOpts(t, 3, opts)
	c0, _ := nodes[0].WorldComm()
	c1, _ := nodes[1].WorldComm()
	nodes[2].Close()

	// The first frame into the closed peer's socket may still be taken by
	// the kernel; the send whose write fails spends the budget.
	deadline := time.Now().Add(10 * time.Second)
	for i := byte(0); ; i++ {
		err := c0.Multicast([]int{2, 1}, 3, []byte{i})
		if m, rerr := c1.RecvTimeout(0, 3, 5*time.Second); rerr != nil || !bytes.Equal(m.Data, []byte{i}) {
			t.Fatalf("multicast %d: live rank got %v, %v", i, m.Data, rerr)
		}
		if errors.Is(err, ErrPeerDead) {
			break
		}
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("closed peer never marked dead")
		}
	}

	start := time.Now()
	err := c0.Multicast([]int{2, 1}, 3, []byte("fast"))
	if took := time.Since(start); !errors.Is(err, ErrPeerDead) || took >= opts.ReconnectBackoff {
		t.Fatalf("multicast to a dead peer: %v after %v, want ErrPeerDead within %v", err, took, opts.ReconnectBackoff)
	}
	if m, err := c1.RecvTimeout(0, 3, 5*time.Second); err != nil || string(m.Data) != "fast" {
		t.Fatalf("live rank beside a dead one got %v, %v", m.Data, err)
	}

	// A replacement rank 2 dials ranks 0 and 1; rank 0's accept clears the
	// mark, and the next multicast reaches the replacement.
	back, err := ListenTCPOpts(2, 3, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if err := back.Connect([]string{nodes[0].Addr(), nodes[1].Addr(), back.Addr()}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c2, _ := back.WorldComm()
	for err = ErrPeerDead; errors.Is(err, ErrPeerDead); {
		if time.Now().After(deadline) {
			t.Fatal("replacement connection never cleared the dead mark")
		}
		time.Sleep(time.Millisecond)
		err = c0.Multicast([]int{2, 1}, 3, []byte("back"))
	}
	if err != nil {
		t.Fatal(err)
	}
	if m, err := c2.RecvTimeout(0, 3, 5*time.Second); err != nil || string(m.Data) != "back" {
		t.Fatalf("replacement got %v, %v", m.Data, err)
	}
}

// TestTCPMulticastGivesUpOnStalledPeer: a peer that accepts connections
// but never reads (a stopped process whose backlog still accepts) costs a
// hardened send one write timeout, not one per reconnect attempt, so a
// Multicast to it and a live rank returns well inside the cluster's 3 s
// eviction window, and the live rank gets the payload.
func TestTCPMulticastGivesUpOnStalledPeer(t *testing.T) {
	opts := HardenedTCPOptions()
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := stalled.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		stalled.Close()
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	// Rank 0 is the stalled listener; ranks 1 and 2 dial it while meshing.
	addrs := []string{stalled.Addr().String(), "", ""}
	nodes := make([]*TCPNode, 3)
	for r := 1; r < 3; r++ {
		if nodes[r], err = ListenTCPOpts(r, 3, "127.0.0.1:0", opts); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nodes[r].Close)
		addrs[r] = nodes[r].Addr()
	}
	errs := make(chan error, 2)
	for r := 1; r < 3; r++ {
		go func(nd *TCPNode) { errs <- nd.Connect(addrs, 5*time.Second) }(nodes[r])
	}
	for r := 1; r < 3; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c1, _ := nodes[1].WorldComm()
	c2, _ := nodes[2].WorldComm()

	// Far more than the socket buffers take, so the write to rank 0 stalls.
	big := bytes.Repeat([]byte{7}, 16<<20)
	start := time.Now()
	err = c2.Multicast([]int{0, 1}, 3, big)
	if took := time.Since(start); !errors.Is(err, ErrPeerDead) || took > opts.WriteTimeout+time.Second {
		t.Fatalf("multicast to a stalled peer: %v after %v, want ErrPeerDead within %v", err, took, opts.WriteTimeout+time.Second)
	}
	if m, err := c1.RecvTimeout(2, 3, 5*time.Second); err != nil || !bytes.Equal(m.Data, big) {
		t.Fatalf("live rank beside a stalled one got %d bytes, %v", len(m.Data), err)
	}
	start = time.Now()
	err = c2.Multicast([]int{0, 1}, 3, []byte("fast"))
	if took := time.Since(start); !errors.Is(err, ErrPeerDead) || took >= opts.ReconnectBackoff {
		t.Fatalf("multicast to a dead peer: %v after %v, want ErrPeerDead within %v", err, took, opts.ReconnectBackoff)
	}
	if m, err := c1.RecvTimeout(2, 3, 5*time.Second); err != nil || string(m.Data) != "fast" {
		t.Fatalf("live rank beside a dead one got %v, %v", m.Data, err)
	}
}

// TestTCPDeadPeerRedialled: a peer marked dead that never dials back — a
// rank 0 restarted on its address waits for rank 1 to dial it — is
// re-dialled in the background by a later send, and the sends after that
// reach it.
func TestTCPDeadPeerRedialled(t *testing.T) {
	opts := HardenedTCPOptions()
	nodes := startTCPWorldOpts(t, 2, opts)
	c1, _ := nodes[1].WorldComm()
	addr := nodes[0].Addr()
	nodes[0].Close()

	deadline := time.Now().Add(10 * time.Second)
	for err := error(nil); !errors.Is(err, ErrPeerDead); err = c1.Send(0, 3, []byte("lost")) {
		if time.Now().After(deadline) {
			t.Fatal("closed peer never marked dead")
		}
	}

	back, err := ListenTCPOpts(0, 2, addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	connected := make(chan error, 1)
	go func() { connected <- back.Connect([]string{addr, nodes[1].Addr()}, 10*time.Second) }()
	for err = ErrPeerDead; errors.Is(err, ErrPeerDead); {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never re-dialled")
		}
		time.Sleep(10 * time.Millisecond)
		err = c1.Send(0, 3, []byte("back"))
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	c0, _ := back.WorldComm()
	if m, err := c0.RecvTimeout(1, 3, 5*time.Second); err != nil || string(m.Data) != "back" {
		t.Fatalf("restarted peer got %q, %v", m.Data, err)
	}
}
