package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"extremenc/internal/cpusim"
	"extremenc/internal/gpu"
	"extremenc/internal/rlnc"
)

// GPUSingleDecoder decodes segments one at a time on the simulated GPU
// using the progressive single-segment kernel (Sec. 4.2.2).
type GPUSingleDecoder struct {
	dev  *gpu.Device
	opts gpu.DecodeOptions
}

var _ Decoder = (*GPUSingleDecoder)(nil)

// NewGPUSingleDecoder creates a single-segment GPU decoder.
func NewGPUSingleDecoder(spec gpu.DeviceSpec, opts gpu.DecodeOptions) (*GPUSingleDecoder, error) {
	dev, err := gpu.NewDevice(spec)
	if err != nil {
		return nil, err
	}
	return &GPUSingleDecoder{dev: dev, opts: opts}, nil
}

// Name implements Decoder.
func (d *GPUSingleDecoder) Name() string {
	return d.dev.Spec().Name + "/single-segment"
}

// DecodeSegments implements Decoder: segments decode strictly one after
// another ("coded blocks have to be decoded one by one till a segment is
// fully decoded; only then the decoding of the next segment starts").
func (d *GPUSingleDecoder) DecodeSegments(sets [][]*rlnc.CodedBlock, p rlnc.Params) (*DecodeReport, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: no segments to decode")
	}
	rep := &DecodeReport{Engine: d.Name()}
	for i, set := range sets {
		res, err := d.dev.DecodeSegment(set, p, &d.opts)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		rep.Segments = append(rep.Segments, res.Segment)
		rep.Bytes += res.DecodedBytes
		rep.Seconds += res.Seconds
	}
	return rep, nil
}

// GPUMultiDecoder decodes many segments in parallel on the simulated GPU
// with the two-stage multi-segment pipeline (Sec. 5.2).
type GPUMultiDecoder struct {
	dev  *gpu.Device
	opts gpu.MultiSegmentOptions
}

var _ Decoder = (*GPUMultiDecoder)(nil)

// NewGPUMultiDecoder creates a multi-segment GPU decoder; segmentsPerSM 1
// reproduces the paper's 30-segment configuration, 2 the 60-segment one.
func NewGPUMultiDecoder(spec gpu.DeviceSpec, segmentsPerSM int) (*GPUMultiDecoder, error) {
	dev, err := gpu.NewDevice(spec)
	if err != nil {
		return nil, err
	}
	return &GPUMultiDecoder{
		dev: dev,
		opts: gpu.MultiSegmentOptions{
			SegmentsPerSM:       segmentsPerSM,
			MaterializeSegments: defaultMaterialize,
		},
	}, nil
}

// Name implements Decoder.
func (d *GPUMultiDecoder) Name() string {
	return fmt.Sprintf("%s/multi-segment-%dx", d.dev.Spec().Name, d.opts.SegmentsPerSM)
}

// DecodeSegments implements Decoder.
func (d *GPUMultiDecoder) DecodeSegments(sets [][]*rlnc.CodedBlock, p rlnc.Params) (*DecodeReport, error) {
	res, err := d.dev.DecodeMultiSegment(sets, p, &d.opts)
	if err != nil {
		return nil, err
	}
	return &DecodeReport{
		Engine:      d.Name(),
		Segments:    res.Segments,
		Bytes:       res.DecodedBytes,
		Seconds:     res.Seconds,
		Stage1Share: res.Stage1Share(),
	}, nil
}

// CPUCooperativeDecoder decodes one segment at a time with all simulated
// cores cooperating on each row operation (the Fig. 4b CPU baseline).
type CPUCooperativeDecoder struct {
	mach *cpusim.Machine
}

var _ Decoder = (*CPUCooperativeDecoder)(nil)

// NewCPUCooperativeDecoder creates the cooperative CPU decoder.
func NewCPUCooperativeDecoder(spec cpusim.CPUSpec) (*CPUCooperativeDecoder, error) {
	mach, err := cpusim.NewMachine(spec)
	if err != nil {
		return nil, err
	}
	return &CPUCooperativeDecoder{mach: mach}, nil
}

// Name implements Decoder.
func (d *CPUCooperativeDecoder) Name() string {
	return d.mach.Spec().Name + "/cooperative"
}

// DecodeSegments implements Decoder.
func (d *CPUCooperativeDecoder) DecodeSegments(sets [][]*rlnc.CodedBlock, p rlnc.Params) (*DecodeReport, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: no segments to decode")
	}
	rep := &DecodeReport{Engine: d.Name()}
	for i, set := range sets {
		res, err := d.mach.DecodeSegment(set, p)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		rep.Segments = append(rep.Segments, res.Segments...)
		rep.Bytes += res.DecodedBytes
		rep.Seconds += res.Seconds
	}
	return rep, nil
}

// CPUMultiDecoder decodes segments with one simulated core per segment
// (the paper's 8-segment CPU scheme, Fig. 9).
type CPUMultiDecoder struct {
	mach *cpusim.Machine
}

var _ Decoder = (*CPUMultiDecoder)(nil)

// NewCPUMultiDecoder creates the per-segment-thread CPU decoder.
func NewCPUMultiDecoder(spec cpusim.CPUSpec) (*CPUMultiDecoder, error) {
	mach, err := cpusim.NewMachine(spec)
	if err != nil {
		return nil, err
	}
	return &CPUMultiDecoder{mach: mach}, nil
}

// Name implements Decoder.
func (d *CPUMultiDecoder) Name() string {
	return fmt.Sprintf("%s/%d-segment", d.mach.Spec().Name, d.mach.Spec().Cores)
}

// DecodeSegments implements Decoder.
func (d *CPUMultiDecoder) DecodeSegments(sets [][]*rlnc.CodedBlock, p rlnc.Params) (*DecodeReport, error) {
	res, err := d.mach.DecodeSegmentsParallel(sets, p, &cpusim.MultiDecodeOptions{
		MaterializeSegments: defaultMaterialize,
	})
	if err != nil {
		return nil, err
	}
	return &DecodeReport{
		Engine:   d.Name(),
		Segments: res.Segments,
		Bytes:    res.DecodedBytes,
		Seconds:  res.Seconds,
	}, nil
}

// HostDecoder decodes on the real machine with worker goroutines and
// reports wall-clock time. Each worker runs the explicit two-stage pipeline
// (rlnc.DecodeTwoStage): [C | I] inversion, then one tiled b = C⁻¹·x
// multiply.
type HostDecoder struct {
	workers int
}

var _ Decoder = (*HostDecoder)(nil)

// NewHostDecoder creates a host decoder; workers ≤ 0 selects GOMAXPROCS.
func NewHostDecoder(workers int) *HostDecoder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &HostDecoder{workers: workers}
}

// Name implements Decoder.
func (d *HostDecoder) Name() string {
	return fmt.Sprintf("host/%d-workers", d.workers)
}

// DecodeSegments implements Decoder.
func (d *HostDecoder) DecodeSegments(sets [][]*rlnc.CodedBlock, p rlnc.Params) (*DecodeReport, error) {
	start := time.Now()
	segs, err := rlnc.DecodeSegmentsParallel(context.Background(), p, sets, d.workers)
	if err != nil {
		return nil, err
	}
	return &DecodeReport{
		Engine:   d.Name(),
		Segments: segs,
		Bytes:    int64(len(sets)) * int64(p.SegmentSize()),
		Seconds:  time.Since(start).Seconds(),
	}, nil
}
