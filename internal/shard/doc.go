// Package shard implements SAGe's sharded container: a read set split
// into fixed-size batches, each compressed independently as one SAGe
// block, held together by a seekable per-shard index. Shards are the
// unit of parallel compression and decompression (this package's worker
// pools), of pipelined I/O→decompress→analyze execution (§3.1), of
// per-shard in-storage scan units, and of multi-client serving
// (internal/serve).
//
// # Writing
//
// CompressPipeline is the one writer: it drains a fastq.BatchSource —
// one FASTQ stream batch by batch (fastq.BatchReader), many input files
// at once (lane splits or paired-end R1/R2 mates via fastq.MultiReader),
// optionally behind the similarity-reorder stage — into a single
// container. Multi-file sources make shard boundaries file-aware (no
// shard spans two source files) and give the header a source-file
// manifest attributing every shard to the file, or mate pair, it came
// from. Compress is its in-memory adaptor for a read set already
// loaded. Both are deterministic: any worker count produces identical
// bytes.
//
// # Reading
//
// Parse validates an in-memory container; Open/OpenFile parse only the
// header behind an io.ReaderAt, so a served container costs its index
// in memory — never the file. Block/DecompressShard fetch and decode
// one shard; Decompress reassembles the whole set on a worker pool;
// Inspect renders the index, including per-source attribution and
// per-file totals when a manifest is present.
//
// # Container format
//
// The normative byte-level specification, including the uvarint
// encoding, the consensus block, the v3 source manifest, and the
// version-history/compatibility table, lives in docs/FORMAT.md. In
// outline (multi-byte integers are unsigned varints unless noted;
// checksums are fixed-width little-endian):
//
//	magic        "SAGS"
//	version      u8 (3; readers also accept the manifest-less 1 and 2)
//	flags        u8 (hasConsensus | consensusHasN<<1)
//	totalReads   total records across all shards
//	shardReads   target records per shard (0 = unknown/streaming)
//	consensusLen (only when hasConsensus)
//	consensus    (only when hasConsensus) 2-bit packed, or 3-bit packed
//	             when consensusHasN
//	sourceCount  (v3+) manifest length, 0 = no source attribution
//	sources      (v3+) sourceCount × (nameLen, name, mateLen, mate,
//	             readCount)
//	shardCount
//	index        shardCount × (readCount, offset, length, source (v3+),
//	             checksum u32 LE)
//	headerCRC    u32 LE, CRC-32/IEEE of every byte above (magic..index)
//	blocks       concatenated SAGe core containers
//
// Offsets are relative to the start of the block section, so the index
// alone is enough to seek to, verify (CRC-32/IEEE), and decode any
// single shard without touching the others. The consensus is stored
// once at the container level and shared by every block (each block is
// compressed with EmbedConsensus off), so sharding does not multiply
// the consensus cost.
package shard
