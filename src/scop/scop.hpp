#pragma once

// The SCoP intermediate representation: the instantiated counterpart of
// Polly's static control part. A Scop is an ordered list of consecutive
// loop nests (one statement per nest, as in the paper's program model,
// §1/§4), each with an iteration domain and affine read/write accesses
// into shared arrays.

#include "presburger/affine.hpp"
#include "presburger/map.hpp"
#include "presburger/polyhedron.hpp"
#include "presburger/set.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pipoly::scop {

/// A shared array with instantiated extents.
struct Array {
  std::string name;
  std::vector<pb::Value> shape;

  std::size_t rank() const { return shape.size(); }
  pb::Space space() const { return pb::Space(name, shape.size()); }
};

/// One affine access of a statement into an array. `subscripts` maps the
/// statement's iteration dimensions — optionally extended by auxiliary
/// dimensions — to array subscripts. Auxiliary dimensions express
/// multi-element accesses such as "row i of A" (subscript (i, k) with k an
/// aux dim ranging over [0, auxExtents[0])), which the matrix-multiplication
/// kernels of the paper's second benchmark set need.
struct Access {
  std::size_t arrayId;
  pb::AffineMap subscripts;
  std::vector<pb::Value> auxExtents;

  std::size_t numAuxDims() const { return auxExtents.size(); }
};

/// The declared combination operator of a reduction statement
/// `A[f(i)] = A[f(i)] ⊕ expr`. The SCoP representation is otherwise
/// semantics-opaque, so the operator is an explicit statement property
/// (Polly reads it off the LLVM-IR instruction chain; the builder DSL
/// declares it). All five operators are exactly associative and
/// commutative over uint64 (Add/Mul wrap mod 2^64), which keeps the
/// integer oracle fingerprints bit-exact under any partial-combine order.
enum class ReductionOp : unsigned char { None, Add, Mul, Xor, Min, Max };

std::string_view reductionOpName(ReductionOp op);

/// ⊕ and its identity element (op(x, identity) == x), so folding an
/// untouched partial slot is a no-op.
std::uint64_t applyReductionOp(ReductionOp op, std::uint64_t a,
                               std::uint64_t b);
std::uint64_t reductionIdentity(ReductionOp op);

/// A statement: the body of one loop nest, executed once per point of its
/// iteration domain.
class Statement {
public:
  Statement(std::string name, std::size_t depth, pb::Polyhedron domainPoly,
            pb::IntTupleSet domain, std::vector<Access> writes,
            std::vector<Access> reads,
            ReductionOp reductionOp = ReductionOp::None)
      : name_(std::move(name)), depth_(depth),
        domainPoly_(std::move(domainPoly)), domain_(std::move(domain)),
        writes_(std::move(writes)), reads_(std::move(reads)),
        reductionOp_(reductionOp) {}

  const std::string& name() const { return name_; }
  std::size_t depth() const { return depth_; }
  const pb::Polyhedron& domainPolyhedron() const { return domainPoly_; }
  const pb::IntTupleSet& domain() const { return domain_; }
  const std::vector<Access>& writes() const { return writes_; }
  const std::vector<Access>& reads() const { return reads_; }
  ReductionOp reductionOp() const { return reductionOp_; }
  pb::Space space() const { return domain_.space(); }

private:
  std::string name_;
  std::size_t depth_;
  pb::Polyhedron domainPoly_;
  pb::IntTupleSet domain_;
  std::vector<Access> writes_;
  std::vector<Access> reads_;
  ReductionOp reductionOp_ = ReductionOp::None;
};

class Scop {
public:
  Scop(std::string name, std::vector<Array> arrays,
       std::vector<Statement> statements)
      : name_(std::move(name)), arrays_(std::move(arrays)),
        statements_(std::move(statements)) {}

  const std::string& name() const { return name_; }
  const std::vector<Array>& arrays() const { return arrays_; }
  const std::vector<Statement>& statements() const { return statements_; }
  std::size_t numStatements() const { return statements_.size(); }
  const Statement& statement(std::size_t i) const { return statements_.at(i); }
  const Array& array(std::size_t i) const { return arrays_.at(i); }

  /// The explicit access relation of one access:
  /// { stmt iteration -> array element }.
  pb::IntMap accessRelation(std::size_t stmtIdx, const Access& access) const;

  /// Union of all write (resp. read) access relations of a statement into
  /// one array.
  pb::IntMap writeRelation(std::size_t stmtIdx, std::size_t arrayId) const;
  pb::IntMap readRelation(std::size_t stmtIdx, std::size_t arrayId) const;

  /// Arrays the statement writes (resp. reads), each listed once.
  std::vector<std::size_t> arraysWrittenBy(std::size_t stmtIdx) const;
  std::vector<std::size_t> arraysReadBy(std::size_t stmtIdx) const;

  std::string toString() const;

private:
  std::string name_;
  std::vector<Array> arrays_;
  std::vector<Statement> statements_;
};

/// The write and read relations one AccessRelations table built, per
/// (statement, array), statement-major; an unbuilt pair is empty. It
/// refers to no Scop, and once released (AccessRelations::release) it is
/// immutable, so copies of a PipelineInfo holding one may be read from
/// any thread and may outlive the Scop.
struct BuiltRelations {
  std::vector<std::optional<pb::IntMap>> writes, reads;
};

/// A Scop's write and read relations, each (statement, array) pair built
/// on first use and then shared. One analysis call (detectPipeline,
/// analyzeCommunication) keeps one on its stack, so its dependence tests,
/// pipeline maps and volumes build each relation once. Implicit from a
/// Scop: a caller that passes one gets a table of its own.
class AccessRelations {
public:
  /// `base`, when given, holds relations an earlier table over this same
  /// Scop built (detectPipeline's, handed on in PipelineInfo::relations).
  /// Lookups read it first and build only what it lacks, into this
  /// table's own storage: `base` is never written.
  AccessRelations(const Scop& scop,
                  std::shared_ptr<const BuiltRelations> base = nullptr);

  const Scop& scop() const { return scop_; }
  /// Scop::writeRelation / Scop::readRelation, memoized.
  const pb::IntMap& write(std::size_t stmtIdx, std::size_t arrayId) const;
  const pb::IntMap& read(std::size_t stmtIdx, std::size_t arrayId) const;

  /// Hands the relations this table built over as an immutable value,
  /// consuming the table. Only a table without a base may be released.
  std::shared_ptr<const BuiltRelations> release() &&;

private:
  /// The statement-major position of a (statement, array) pair.
  std::size_t index(std::size_t stmtIdx, std::size_t arrayId) const;

  const Scop& scop_;
  std::shared_ptr<const BuiltRelations> base_;
  mutable BuiltRelations built_; // filled lazily
};

} // namespace pipoly::scop
