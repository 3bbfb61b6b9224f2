package store

import "sofos/internal/rdf"

// Codec selects the storage representation for a graph's immutable sorted
// runs. Every production graph uses the block codec (delta/varint block
// compression, see block.go); NewGraph, BuildFrom and Load always build block
// runs. The flat codec is the original fixed-width layout, reachable only
// through NewGraphWithCodec and BuildFromWithCodec: it is the oracle the
// store, engine and run-level differential tests compare block runs against,
// and it has no snapshot form.
type Codec uint8

const (
	// CodecBlock stores runs as fixed-size compressed blocks.
	CodecBlock Codec = iota
	// CodecFlat stores runs as plain []rdf.EncodedTriple slices.
	CodecFlat
)

// String returns the codec's name.
func (c Codec) String() string {
	if c == CodecFlat {
		return "flat"
	}
	return "block"
}

func (c Codec) runCodec() runCodec {
	if c == CodecFlat {
		return flatCodec{}
	}
	return blockCodec{}
}

// NewGraphWithCodec returns an empty graph whose runs use the given codec.
func NewGraphWithCodec(c Codec) *Graph {
	g := NewGraph()
	g.codec = c.runCodec()
	return g
}

// BuildFromWithCodec is BuildFrom with an explicit run codec.
func BuildFromWithCodec(c Codec, ts []rdf.Triple) (*Graph, error) {
	g := NewGraphWithCodec(c)
	if _, err := g.LoadTriples(ts); err != nil {
		return nil, err
	}
	return g, nil
}
