package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// frame layout: u32 payloadLen | u32 comm | i32 src | i32 tag | payload.
const frameHeaderLen = 16

// maxFrameLen bounds a single message (64 MiB) to catch corrupted streams.
const maxFrameLen = 64 << 20

// TCPOptions tunes the transport's failure behaviour. The zero value
// reproduces the original strict semantics: no deadlines, no reconnection,
// a broken pipe fails the send.
type TCPOptions struct {
	// WriteTimeout bounds one frame write; 0 means no deadline.
	WriteTimeout time.Duration
	// ReadIdleTimeout bounds the silence a reader tolerates before
	// declaring the connection dead; 0 means wait forever.
	ReadIdleTimeout time.Duration
	// ReconnectAttempts is how many times a failed send re-dials the peer
	// before giving up; 0 disables reconnection.
	ReconnectAttempts int
	// ReconnectBackoff is the initial delay between reconnect attempts,
	// doubled each retry (capped at 32×); 0 defaults to 25 ms.
	ReconnectBackoff time.Duration
	// DialTimeout bounds one reconnect dial; 0 defaults to 5 s.
	DialTimeout time.Duration
}

// HardenedTCPOptions returns the recommended production settings: bounded
// writes and capped reconnection with exponential backoff, the transport
// half of the failure-recovery design (the cluster master supplies the
// protocol half).
func HardenedTCPOptions() TCPOptions {
	return TCPOptions{
		WriteTimeout:      10 * time.Second,
		ReconnectAttempts: 3,
		ReconnectBackoff:  25 * time.Millisecond,
		DialTimeout:       5 * time.Second,
	}
}

// TCPNode is one process of a TCP-connected world. All ranks listen, then
// build a full mesh: rank i dials every rank j < i and accepts connections
// from every rank j > i. After Connect, the node behaves exactly like an
// inproc rank: WorldComm returns the world communicator and all Comm
// operations work unchanged, so the training code is transport-agnostic
// (the decoupling the paper attributes to its comm-manager class).
//
// With reconnection enabled (TCPOptions.ReconnectAttempts > 0) a send that
// hits a broken pipe re-dials the peer with exponential backoff, and the
// listener keeps accepting replacement connections after the initial mesh
// is built, so a transient connection loss does not fail the job.
type TCPNode struct {
	rank int
	n    int
	opts TCPOptions

	listener net.Listener
	inbox    *mailbox

	mu     sync.Mutex
	conns  map[int]net.Conn
	sendMu map[int]*sync.Mutex
	addrs  []string
	closed bool
	wg     sync.WaitGroup
}

// ListenTCP creates a node for the given rank of an n-process world,
// listening on bind (e.g. "127.0.0.1:0") with strict zero options. The
// chosen address is available via Addr.
func ListenTCP(rank, n int, bind string) (*TCPNode, error) {
	return ListenTCPOpts(rank, n, bind, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with explicit failure-behaviour options.
func ListenTCPOpts(rank, n int, bind string, opts TCPOptions) (*TCPNode, error) {
	if n <= 0 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("mpi: invalid rank %d of %d", rank, n)
	}
	if opts.ReconnectBackoff <= 0 {
		opts.ReconnectBackoff = 25 * time.Millisecond
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s: %w", bind, err)
	}
	return &TCPNode{
		rank:     rank,
		n:        n,
		opts:     opts,
		listener: ln,
		inbox:    newMailbox(),
		conns:    make(map[int]net.Conn),
		sendMu:   make(map[int]*sync.Mutex),
	}, nil
}

// Addr returns the node's listening address.
func (t *TCPNode) Addr() string { return t.listener.Addr().String() }

// Connect establishes the full mesh. addrs maps every rank to its
// listening address (addrs[t.rank] is ignored). Dialing retries until the
// deadline to tolerate staggered process start-up. After the initial mesh
// is up the accept loop keeps running so peers can replace broken
// connections.
func (t *TCPNode) Connect(addrs []string, timeout time.Duration) error {
	if len(addrs) != t.n {
		return fmt.Errorf("mpi: Connect wants %d addresses, got %d", t.n, len(addrs))
	}
	t.mu.Lock()
	t.addrs = append([]string(nil), addrs...)
	t.mu.Unlock()
	deadline := time.Now().Add(timeout)
	errc := make(chan error, 2)

	// Accept connections from higher ranks; stay alive afterwards to serve
	// reconnects from any peer.
	expectAccept := t.n - 1 - t.rank
	t.wg.Add(1)
	go t.acceptLoop(expectAccept, errc)

	// Dial lower ranks.
	go func() {
		for peer := 0; peer < t.rank; peer++ {
			conn, err := t.dialPeer(peer, deadline)
			if err != nil {
				errc <- err
				return
			}
			t.addConn(peer, conn)
		}
		errc <- nil
	}()

	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Close()
			return err
		}
	}
	return nil
}

// dialPeer dials one peer and performs the hello handshake, retrying until
// the deadline.
func (t *TCPNode) dialPeer(peer int, deadline time.Time) (net.Conn, error) {
	t.mu.Lock()
	addr := t.addrs[peer]
	t.mu.Unlock()
	var conn net.Conn
	var err error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err = d.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mpi: rank %d dialing rank %d at %s: %w", t.rank, peer, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(t.rank))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpi: rank %d hello to rank %d: %w", t.rank, peer, err)
	}
	return conn, nil
}

// acceptLoop accepts peer connections for the lifetime of the node. The
// first expectInitial accepts form the initial mesh (reported on errc);
// later accepts replace broken connections from reconnecting peers.
func (t *TCPNode) acceptLoop(expectInitial int, errc chan<- error) {
	defer t.wg.Done()
	got := 0
	if expectInitial == 0 {
		errc <- nil
	}
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			if got < expectInitial {
				errc <- fmt.Errorf("mpi: rank %d accept: %w", t.rank, err)
			}
			return // listener closed
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			if got < expectInitial {
				errc <- fmt.Errorf("mpi: rank %d reading hello: %w", t.rank, err)
				return
			}
			conn.Close()
			continue
		}
		peer := int(binary.LittleEndian.Uint32(hello[:]))
		if peer == t.rank || peer < 0 || peer >= t.n {
			if got < expectInitial {
				errc <- fmt.Errorf("mpi: rank %d got hello from unexpected rank %d", t.rank, peer)
				return
			}
			conn.Close()
			continue
		}
		t.addConn(peer, conn)
		if got < expectInitial {
			got++
			if got == expectInitial {
				errc <- nil
			}
		}
	}
}

// addConn registers a peer connection (replacing and closing any previous
// one) and starts its reader goroutine.
func (t *TCPNode) addConn(peer int, conn net.Conn) {
	t.mu.Lock()
	old := t.conns[peer]
	t.conns[peer] = conn
	if t.sendMu[peer] == nil {
		t.sendMu[peer] = &sync.Mutex{}
	}
	closed := t.closed
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if closed {
		conn.Close()
		return
	}
	t.wg.Add(1)
	go t.readLoop(conn)
}

// readLoop decodes frames from one peer into the inbox until the
// connection fails or the node closes.
func (t *TCPNode) readLoop(conn net.Conn) {
	defer t.wg.Done()
	hdr := make([]byte, frameHeaderLen)
	for {
		if t.opts.ReadIdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.opts.ReadIdleTimeout)) //nolint:errcheck
		}
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		if plen > maxFrameLen {
			return
		}
		m := wireMsg{
			Comm: binary.LittleEndian.Uint32(hdr[4:]),
			Src:  int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
			Tag:  int(int32(binary.LittleEndian.Uint32(hdr[12:]))),
		}
		if plen > 0 {
			m.Data = make([]byte, plen)
			if _, err := io.ReadFull(conn, m.Data); err != nil {
				return
			}
		}
		if t.inbox.put(m) != nil {
			return
		}
	}
}

// sendWorld queues a self-send in the inbox, where it holds a reference
// like an in-process delivery. A frame to a peer is written straight from
// the payload, behind its header, and holds nothing once this returns.
func (t *TCPNode) sendWorld(dst int, m wireMsg) error {
	if dst == t.rank {
		return t.inbox.put(m)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(m.Data)))
	binary.LittleEndian.PutUint32(hdr[4:], m.Comm)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(m.Src)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(int32(m.Tag)))

	backoff := t.opts.ReconnectBackoff
	for attempt := 0; ; attempt++ {
		t.mu.Lock()
		conn := t.conns[dst]
		mu := t.sendMu[dst]
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return ErrClosed
		}
		var err error
		if conn == nil {
			err = fmt.Errorf("mpi: no connection to world rank %d", dst)
		} else {
			err = t.writeFrame(conn, mu, hdr[:], m.Data)
			if err == nil {
				return nil
			}
		}
		if attempt >= t.opts.ReconnectAttempts {
			return fmt.Errorf("mpi: send to rank %d: %w", dst, err)
		}
		// Broken pipe with reconnection enabled: re-dial the peer with
		// capped exponential backoff and retry the frame.
		if conn != nil {
			conn.Close()
		}
		time.Sleep(backoff)
		if backoff < 32*t.opts.ReconnectBackoff {
			backoff *= 2
		}
		if rerr := t.reconnect(dst, conn); rerr != nil && attempt == t.opts.ReconnectAttempts-1 {
			return fmt.Errorf("mpi: send to rank %d: reconnect: %w", dst, rerr)
		}
	}
}

// writeFrame writes one frame — header, then payload, in one vectored
// write — under the peer's send lock, applying the configured write
// deadline.
func (t *TCPNode) writeFrame(conn net.Conn, mu *sync.Mutex, hdr, payload []byte) error {
	mu.Lock()
	defer mu.Unlock()
	if t.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)) //nolint:errcheck
	}
	frame := net.Buffers{hdr, payload}
	_, err := frame.WriteTo(conn)
	return err
}

// reconnect replaces a broken connection to dst, unless another goroutine
// already did.
func (t *TCPNode) reconnect(dst int, broken net.Conn) error {
	t.mu.Lock()
	if t.closed || t.addrs == nil {
		t.mu.Unlock()
		return ErrClosed
	}
	if cur := t.conns[dst]; cur != nil && cur != broken {
		t.mu.Unlock()
		return nil // already replaced (by acceptLoop or a racing sender)
	}
	t.mu.Unlock()
	conn, err := t.dialPeer(dst, time.Now().Add(t.opts.DialTimeout))
	if err != nil {
		return err
	}
	t.addConn(dst, conn)
	return nil
}

func (t *TCPNode) recvWorld(commID uint32, srcWorld, tag int) (wireMsg, error) {
	return t.inbox.take(commID, srcWorld, tag)
}

func (t *TCPNode) worldRank() int { return t.rank }
func (t *TCPNode) worldSize() int { return t.n }

func (t *TCPNode) close() error {
	t.Close()
	return nil
}

// Close tears the node down: the listener and all connections are closed
// and pending receives unblock with ErrClosed.
func (t *TCPNode) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	t.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	t.inbox.close()
	t.wg.Wait()
}

// WorldComm returns the world communicator for this node. Call after
// Connect.
func (t *TCPNode) WorldComm() (*Comm, error) {
	group := make([]int, t.n)
	for i := range group {
		group[i] = i
	}
	return newComm(t, worldCommID, group)
}
