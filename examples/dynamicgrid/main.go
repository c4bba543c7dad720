// Dynamicgrid: the paper's new grid class supports "modifying the grid and
// also the structure of neighboring processes dynamically ... exploring
// different patterns for training and learning" (§III-C). This example
// trains a 3×3 grid and switches every cell's neighbourhood pattern from
// the five-cell Moore neighbourhood to the full nine-cell Moore
// neighbourhood halfway through, showing how the sub-populations and
// mixtures grow in response.
//
// Run with: go run ./examples/dynamicgrid
package main

import (
	"fmt"
	"log"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/grid"
)

func main() {
	cfg := config.Default()
	cfg.GridRows, cfg.GridCols = 3, 3
	cfg.Iterations = 4 // driven manually below
	cfg.BatchesPerIteration = 2
	cfg.DatasetSize = 500
	cfg.NeuronsPerHidden = 32
	cfg.InputNeurons = 16

	g, err := grid.New(cfg.GridRows, cfg.GridCols)
	if err != nil {
		log.Fatal(err)
	}
	cells := make([]*core.Cell, g.Size())
	for r := range cells {
		cells[r], err = core.NewCell(cfg, r, g, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	exchange := func() {
		states := map[int]*core.CellState{}
		for _, c := range cells {
			s, err := c.State()
			if err != nil {
				log.Fatal(err)
			}
			states[c.Rank] = s
		}
		for _, c := range cells {
			if err := c.SetNeighbors(states); err != nil {
				log.Fatal(err)
			}
		}
	}

	exchange()
	fmt.Printf("phase 1 — Moore-5 neighbourhoods: cell 4 trains against cells %v\n",
		cells[4].Neighborhood())
	for iter := 0; iter < 2; iter++ {
		for _, c := range cells {
			if _, err := c.Iterate(); err != nil {
				log.Fatal(err)
			}
		}
		exchange()
	}
	fmt.Printf("  mixture of cell 4 spans %d generators: %v\n",
		len(cells[4].Mixture().Ranks), cells[4].Mixture().Ranks)

	// Reconfigure the topology while training state is live: every cell
	// now sees the full 3×3 Moore neighbourhood.
	if err := g.SetPattern(grid.Moore9); err != nil {
		log.Fatal(err)
	}
	exchange() // re-gather under the new pattern

	fmt.Printf("\nphase 2 — switched to Moore-9: cell 4 now trains against cells %v\n",
		cells[4].Neighborhood())
	for iter := 0; iter < 2; iter++ {
		for _, c := range cells {
			if _, err := c.Iterate(); err != nil {
				log.Fatal(err)
			}
		}
		exchange()
	}
	fmt.Printf("  mixture of cell 4 spans %d generators: %v\n",
		len(cells[4].Mixture().Ranks), cells[4].Mixture().Ranks)

	fmt.Printf("\non a 3×3 torus Moore-9 covers the whole grid, so every cell's\n")
	fmt.Printf("sub-population grew from 5 to %d members without restarting training.\n",
		len(cells[4].Mixture().Ranks))
}
