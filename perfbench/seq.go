package main

import (
	"math/rand/v2"
)

// Every input the benchmark gives the program is drawn from a PCG
// stream keyed by (seed, purpose, index), so a seed fixes the whole op
// sequence no matter how the clients interleave at run time.
const (
	streamOps = iota + 1
	streamPerm
	streamPayload
)

func newRand(seed int64, purpose, index int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(purpose)<<32|uint64(index)))
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed int64, purpose, n int) []int {
	return newRand(seed, streamPerm, purpose).Perm(n)
}

// opKind is one of the five hello-counter operations of Fig 2.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opCreate
	opDestroy
	opNotify
)

var opNames = [...]string{"Get", "Set", "Create", "Destroy", "Notify"}

func (k opKind) String() string { return opNames[k] }

// counterWeights is cmd/loadgen's hello blend (Get 35 / Set 25 /
// Create 15 / Destroy 15 / Notify 10), in percent.
var counterWeights = [...]int{opGet: 35, opSet: 25, opCreate: 15, opDestroy: 15, opNotify: 10}

// counterOp is one drawn operation; target indexes the standing
// population and matters only for Get and Set.
type counterOp struct {
	kind   opKind
	target int
}

// zipfS skews Get/Set targets into a hot head and a long tail. No
// source fixes its value: the paper's Fig-2 counter has no access
// distribution. With a population larger than xmldb's parsed-document
// cache, part of the tail misses the cache; README.md gives the miss
// share measured with it.
const zipfS = 1.1

// opStream is one closed-loop client's infinite op sequence.
type opStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int
}

// newOpStream returns client's op sequence over a population of n
// counters. perm maps Zipf ranks to counters, so which counters are
// hot also follows the seed; all clients share it.
func newOpStream(seed int64, client int, perm []int) *opStream {
	r := newRand(seed, streamOps, client)
	return &opStream{
		r:    r,
		zipf: rand.NewZipf(r, zipfS, 1, uint64(len(perm)-1)),
		perm: perm,
	}
}

func (s *opStream) next() counterOp {
	draw := s.r.IntN(100)
	kind := opGet
	for k, w := range counterWeights {
		if draw < w {
			kind = opKind(k)
			break
		}
		draw -= w
	}
	op := counterOp{kind: kind}
	if kind == opGet || kind == opSet {
		op.target = s.perm[s.zipf.Uint64()]
	}
	return op
}
