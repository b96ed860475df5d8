// Package parallelism models 3D parallelization strategies for
// distributed DNN training: the MP (tensor/model), DP (data) and PP
// (pipeline) dimensions of Narayanan et al.'s 3D parallelism, worker
// identity within those dimensions, and the MP/DP/PP communication
// groups of Figure 1 of the FRED paper.
package parallelism

import "fmt"

// Strategy is a 3D parallelization strategy MP(a)-DP(b)-PP(c): a peer
// workers in each model-parallel group, b in each data-parallel group,
// c pipeline stages.
type Strategy struct {
	MP, DP, PP int
}

// Workers returns the number of training workers the strategy uses.
func (s Strategy) Workers() int { return s.MP * s.DP * s.PP }

// Valid reports whether every dimension is at least 1.
func (s Strategy) Valid() bool { return s.MP >= 1 && s.DP >= 1 && s.PP >= 1 }

// String formats the strategy in the paper's notation.
func (s Strategy) String() string {
	return fmt.Sprintf("MP(%d)-DP(%d)-PP(%d)", s.MP, s.DP, s.PP)
}

// Worker identifies a training worker by its offset in each dimension,
// like the 3-digit IDs of Figure 1 (MP digit, DP digit, PP digit).
type Worker struct {
	MP, DP, PP int
}

// String formats the worker like the paper's 3-digit IDs.
func (w Worker) String() string { return fmt.Sprintf("%d%d%d", w.MP, w.DP, w.PP) }

// Rank converts a worker to its canonical rank. Ranks iterate MP
// fastest, then PP, then DP — the order FRED's device-placement policy
// lays workers onto consecutive physical NPUs (Section 5.3): workers of
// one MP group are contiguous, then pipeline stages, then DP replicas.
func (s Strategy) Rank(w Worker) int {
	return w.MP + s.MP*(w.PP+s.PP*w.DP)
}

// Worker is the inverse of Rank.
func (s Strategy) Worker(rank int) Worker {
	if rank < 0 || rank >= s.Workers() {
		panic(fmt.Sprintf("parallelism: rank %d out of range for %v", rank, s))
	}
	mp := rank % s.MP
	rest := rank / s.MP
	pp := rest % s.PP
	dp := rest / s.PP
	return Worker{MP: mp, DP: dp, PP: pp}
}

// MPGroups returns the model-parallel groups as slices of ranks.
// Workers that share DP and PP coordinates form one MP group; they
// synchronize activations/input-gradients during forward/backward.
func (s Strategy) MPGroups() [][]int {
	groups := make([][]int, 0, s.DP*s.PP)
	for dp := 0; dp < s.DP; dp++ {
		for pp := 0; pp < s.PP; pp++ {
			g := make([]int, s.MP)
			for mp := 0; mp < s.MP; mp++ {
				g[mp] = s.Rank(Worker{mp, dp, pp})
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// DPGroups returns the data-parallel groups as slices of ranks.
// Workers that share MP and PP coordinates form one DP group; they
// all-reduce weight gradients during back-propagation.
func (s Strategy) DPGroups() [][]int {
	groups := make([][]int, 0, s.MP*s.PP)
	for mp := 0; mp < s.MP; mp++ {
		for pp := 0; pp < s.PP; pp++ {
			g := make([]int, s.DP)
			for dp := 0; dp < s.DP; dp++ {
				g[dp] = s.Rank(Worker{mp, dp, pp})
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// PPGroups returns the pipeline groups as slices of ranks ordered by
// stage. Workers that share MP and DP coordinates form one PP group;
// adjacent stages exchange activations/input-gradients.
func (s Strategy) PPGroups() [][]int {
	groups := make([][]int, 0, s.MP*s.DP)
	for mp := 0; mp < s.MP; mp++ {
		for dp := 0; dp < s.DP; dp++ {
			g := make([]int, s.PP)
			for pp := 0; pp < s.PP; pp++ {
				g[pp] = s.Rank(Worker{mp, dp, pp})
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// EnumerateExact returns every strategy whose worker count is exactly
// n, in lexicographic (MP, DP, PP) order.
func EnumerateExact(n int) []Strategy {
	var out []Strategy
	for mp := 1; mp <= n; mp++ {
		if n%mp != 0 {
			continue
		}
		rest := n / mp
		for dp := 1; dp <= rest; dp++ {
			if rest%dp != 0 {
				continue
			}
			out = append(out, Strategy{MP: mp, DP: dp, PP: rest / dp})
		}
	}
	return out
}
