package mpi

import (
	"fmt"
	"testing"
)

func TestSplitByParity(t *testing.T) {
	runRanks(t, 6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("world rank %d got sub rank %d want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Collective inside the sub-communicator.
		parts, err := sub.Allgather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for i, p := range parts {
			want := byte(2*i + c.Rank()%2)
			if p[0] != want {
				return fmt.Errorf("sub allgather part %d = %d want %d", i, p[0], want)
			}
		}
		return nil
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	runRanks(t, 4, func(c *Comm) error {
		// Reverse ordering via descending keys.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := c.Size() - 1 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("world %d -> sub %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	runRanks(t, 3, func(c *Comm) error {
		color := 0
		if c.Rank() == 1 {
			color = -1
		}
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if sub != nil {
				return fmt.Errorf("excluded rank got a communicator")
			}
			return nil
		}
		if sub.Size() != 2 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// A world barrier would hang (rank 1 left); use the sub-comm.
		return sub.Barrier()
	})
}

func TestSplitIsolatesMessageContexts(t *testing.T) {
	// The same tag on parent and child communicators must not cross.
	runRanks(t, 2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		const tag = 5
		if c.Rank() == 0 {
			if err := c.Send(1, tag, []byte("parent")); err != nil {
				return err
			}
			return sub.Send(1, tag, []byte("child"))
		}
		mc, err := sub.Recv(0, tag)
		if err != nil {
			return err
		}
		if string(mc.Data) != "child" {
			return fmt.Errorf("child comm got %q", mc.Data)
		}
		mp, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		if string(mp.Data) != "parent" {
			return fmt.Errorf("parent comm got %q", mp.Data)
		}
		return nil
	})
}

func TestSplitTwiceDistinctComms(t *testing.T) {
	runRanks(t, 2, func(c *Comm) error {
		a, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		b, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if a.id == b.id {
			return fmt.Errorf("two splits share a communicator id")
		}
		return nil
	})
}
