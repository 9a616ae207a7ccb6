// Graph serialization: a plain-text edge list (human-editable) and the
// NDPG v2 binary format (the server ingestion path).
//
// Text format:
//   # comment lines start with '#'
//   <num_vertices> <num_edges>
//   <u> <v>          (one line per edge)
//
// Reading tolerates duplicate edges (collapsed) but rejects self-loops and
// out-of-range endpoints with a non-OK Status.
//
// NDPG v2 (layout in graph/ndpg_v2.h and docs/SERVING.md) lays the file
// out as the CSR arrays themselves — header, then 64-byte-aligned
// edges/offsets/neighbors/incident_edge_ids sections, each with a
// checksum — so a v2 file can be heap-loaded here or served zero-copy via
// Graph::FromMmap. Both opens run the same fail-closed validation
// (ndpgv2::ParseHeader, then ndpgv2::ValidateCsr); the heap load also
// always verifies every section checksum.

#ifndef NODEDP_GRAPH_GRAPH_IO_H_
#define NODEDP_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

// Writes g to `out` in edge-list format.
void WriteEdgeList(const Graph& g, std::ostream& out);

// Parses a graph from `in`.
Result<Graph> ReadEdgeList(std::istream& in);

// File convenience wrappers.
Status WriteEdgeListFile(const Graph& g, const std::string& path);
Result<Graph> ReadEdgeListFile(const std::string& path);

// ---------------------------------------------------------------------------
// Binary format v2
// ---------------------------------------------------------------------------

// Writes g in NDPG v2 (mmap-servable CSR) format.
Status WriteGraphV2File(const Graph& g, const std::string& path);

// Heap load of a v2 file: reads each section into owned arrays, verifies
// the header and section checksums, and runs ValidateCsr — the same
// structural check Graph::FromMmap runs. Little-endian hosts only.
Result<Graph> ReadGraphV2File(const std::string& path);

// Sniffs the magic bytes: any NDPG file goes to ReadGraphV2File (which
// refuses other versions by number), anything else to the text reader —
// the loader behind `serve_cli load`, so one command accepts both formats.
Result<Graph> ReadGraphAnyFile(const std::string& path);

}  // namespace nodedp

#endif  // NODEDP_GRAPH_GRAPH_IO_H_
