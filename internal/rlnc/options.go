package rlnc

// Option configures the codec constructors that consume blocks — NewDecoder
// and NewRecoder. Zero-option calls are unchanged, so existing code keeps
// compiling; options that do not apply to a constructor are ignored (e.g. a
// seed on the deterministic progressive decoder).
type Option func(*config)

// DecoderOption is Option under the name the decoder constructor documents.
type DecoderOption = Option

// config collects the settings an Option can carry.
type config struct {
	seed      int64
	seeded    bool
	xorRecode bool
}

func applyOptions(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithSeed gives the constructed codec a private deterministic random source.
// A Recoder built with a seed can emit recombinations via Emit without the
// caller threading an rng through every call; decoders, which are fully
// deterministic, ignore it. The source is built on the recoder's first
// emission, so one that never emits never pays for it.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed, c.seeded = seed, true }
}

// WithXorRecode constrains a Recoder to GF(2) recombinations: Emit and
// NextBlock draw each input's coefficient from {0, 1} (never all zero) and
// combine through the wide-word XOR kernels instead of the GF(2^8) multiply
// tables — the fixed cheap-operation relay mode of the programmable-switch
// literature. When every held input is binary (a systematic sweep or XOR
// repair stream) the emitted block is binary too, so a relay can re-frame it
// in the compact XNC2 encoding; one dense input makes the output dense but
// the combination stays valid, since {0, 1} are GF(2^8) elements. Decoders
// ignore this option.
func WithXorRecode() Option {
	return func(c *config) { c.xorRecode = true }
}
