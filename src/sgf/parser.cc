#include "sgf/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "sgf/analyzer.h"

namespace gumbo::sgf {

namespace {

enum class TokKind {
  kIdent,      // relation / output / variable names
  kInt,        // integer literal
  kString,     // double-quoted string literal
  kAssign,     // :=
  kLParen,
  kRParen,
  kComma,
  kSemicolon,
  kSelect,
  kFrom,
  kWhere,
  kAnd,
  kOr,
  kNot,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;   // identifier or string payload
  int64_t int_value;  // for kInt
  int line;
  int col;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      int line = line_, col = col_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string word = ReadWord();
        out->push_back({KeywordOrIdent(word), word, 0, line, col});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < text_.size() &&
                  std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        GUMBO_RETURN_IF_ERROR(ReadInt(out, line, col));
      } else if (c == '"') {
        GUMBO_RETURN_IF_ERROR(ReadString(out, line, col));
      } else if (c == ':' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '=') {
        Advance();
        Advance();
        out->push_back({TokKind::kAssign, ":=", 0, line, col});
      } else if (c == '(') {
        Advance();
        out->push_back({TokKind::kLParen, "(", 0, line, col});
      } else if (c == ')') {
        Advance();
        out->push_back({TokKind::kRParen, ")", 0, line, col});
      } else if (c == ',') {
        Advance();
        out->push_back({TokKind::kComma, ",", 0, line, col});
      } else if (c == ';') {
        Advance();
        out->push_back({TokKind::kSemicolon, ";", 0, line, col});
      } else {
        return Error(line, col,
                     std::string("unexpected character '") + c + "'");
      }
    }
    out->push_back({TokKind::kEnd, "", 0, line_, col_});
    return Status::Ok();
  }

 private:
  static Status Error(int line, int col, const std::string& msg) {
    return Status::ParseError("line " + std::to_string(line) + ":" +
                              std::to_string(col) + ": " + msg);
  }

  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Advance();
      } else if (c == '-' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '-') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  std::string ReadWord() {
    std::string word;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      word += text_[pos_];
      Advance();
    }
    return word;
  }

  Status ReadInt(std::vector<Token>* out, int line, int col) {
    std::string num;
    if (text_[pos_] == '-') {
      num += '-';
      Advance();
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      num += text_[pos_];
      Advance();
    }
    errno = 0;
    int64_t v = std::strtoll(num.c_str(), nullptr, 10);
    if (errno != 0) return Error(line, col, "integer literal out of range");
    out->push_back({TokKind::kInt, num, v, line, col});
    return Status::Ok();
  }

  Status ReadString(std::vector<Token>* out, int line, int col) {
    Advance();  // opening quote
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\n') {
        return Error(line, col, "unterminated string literal");
      }
      s += text_[pos_];
      Advance();
    }
    if (pos_ >= text_.size()) {
      return Error(line, col, "unterminated string literal");
    }
    Advance();  // closing quote
    out->push_back({TokKind::kString, s, 0, line, col});
    return Status::Ok();
  }

  static TokKind KeywordOrIdent(const std::string& word) {
    std::string up;
    for (char c : word) up += static_cast<char>(std::toupper(c));
    if (up == "SELECT") return TokKind::kSelect;
    if (up == "FROM") return TokKind::kFrom;
    if (up == "WHERE") return TokKind::kWhere;
    if (up == "AND") return TokKind::kAnd;
    if (up == "OR") return TokKind::kOr;
    if (up == "NOT") return TokKind::kNot;
    return TokKind::kIdent;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, Dictionary* dict)
      : tokens_(std::move(tokens)), dict_(dict) {}

  Result<SgfQuery> ParseProgram() {
    SgfQuery query;
    while (Peek().kind != TokKind::kEnd) {
      GUMBO_ASSIGN_OR_RETURN(BsgfQuery q, ParseStatement());
      GUMBO_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
      query.Append(std::move(q));
    }
    if (query.empty()) return Status::ParseError("no statements found");
    return query;
  }

  Result<BsgfQuery> ParseSingle() {
    GUMBO_ASSIGN_OR_RETURN(BsgfQuery q, ParseStatement());
    if (Peek().kind == TokKind::kSemicolon) Next();
    if (Peek().kind != TokKind::kEnd) {
      return ErrorAt(Peek(), "trailing input after statement");
    }
    return q;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  static Status ErrorAt(const Token& tok, const std::string& msg) {
    return Status::ParseError("line " + std::to_string(tok.line) + ":" +
                              std::to_string(tok.col) + ": " + msg);
  }

  Status Expect(TokKind kind, const std::string& what) {
    if (Peek().kind != kind) {
      return ErrorAt(Peek(), "expected " + what + ", found '" +
                                 (Peek().kind == TokKind::kEnd
                                      ? std::string("<end>")
                                      : Peek().text) +
                                 "'");
    }
    Next();
    return Status::Ok();
  }

  Result<BsgfQuery> ParseStatement() {
    if (Peek().kind != TokKind::kIdent) {
      return ErrorAt(Peek(), "expected output relation name");
    }
    std::string output = Next().text;
    GUMBO_RETURN_IF_ERROR(Expect(TokKind::kAssign, "':='"));
    GUMBO_RETURN_IF_ERROR(Expect(TokKind::kSelect, "SELECT"));
    GUMBO_ASSIGN_OR_RETURN(std::vector<std::string> select_vars,
                           ParseSelectList());
    GUMBO_RETURN_IF_ERROR(Expect(TokKind::kFrom, "FROM"));
    GUMBO_ASSIGN_OR_RETURN(Atom guard, ParseAtom());
    std::vector<Atom> atoms;
    ConditionPtr cond;
    if (Peek().kind == TokKind::kWhere) {
      Next();
      GUMBO_ASSIGN_OR_RETURN(cond, ParseOr(&atoms, 0));
    }
    return BsgfQuery(std::move(output), std::move(select_vars),
                     std::move(guard), std::move(atoms), std::move(cond));
  }

  Result<std::vector<std::string>> ParseSelectList() {
    std::vector<std::string> vars;
    if (Peek().kind == TokKind::kLParen) {
      Next();
      while (true) {
        if (Peek().kind != TokKind::kIdent) {
          return ErrorAt(Peek(), "expected variable in SELECT list");
        }
        vars.push_back(Next().text);
        if (Peek().kind == TokKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      GUMBO_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    } else if (Peek().kind == TokKind::kIdent) {
      vars.push_back(Next().text);
    } else {
      return ErrorAt(Peek(), "expected SELECT list");
    }
    return vars;
  }

  Result<Atom> ParseAtom() {
    if (Peek().kind != TokKind::kIdent) {
      return ErrorAt(Peek(), "expected relation name");
    }
    std::string rel = Next().text;
    GUMBO_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    std::vector<Term> terms;
    while (true) {
      const Token& t = Peek();
      if (t.kind == TokKind::kIdent) {
        Next();
        terms.push_back(Term::Var(t.text));
      } else if (t.kind == TokKind::kInt) {
        Next();
        terms.push_back(Term::ConstInt(t.int_value));
      } else if (t.kind == TokKind::kString) {
        Next();
        terms.push_back(Term::Const(dict_->Intern(t.text)));
      } else {
        return ErrorAt(t, "expected term (variable, integer, or string)");
      }
      if (Peek().kind == TokKind::kComma) {
        Next();
        continue;
      }
      break;
    }
    GUMBO_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return Atom(std::move(rel), std::move(terms));
  }

  // Adds `atom` to the atom list, reusing the index of a structurally
  // identical atom (the paper treats identical atoms as one).
  size_t InternAtom(Atom atom, std::vector<Atom>* atoms) {
    for (size_t i = 0; i < atoms->size(); ++i) {
      if ((*atoms)[i] == atom) return i;
    }
    atoms->push_back(std::move(atom));
    return atoms->size() - 1;
  }

  // `depth` counts the NOTs and '('s open around the current token.
  Result<ConditionPtr> ParseOr(std::vector<Atom>* atoms, int depth) {
    GUMBO_ASSIGN_OR_RETURN(ConditionPtr lhs, ParseAnd(atoms, depth));
    while (Peek().kind == TokKind::kOr) {
      Next();
      GUMBO_ASSIGN_OR_RETURN(ConditionPtr rhs, ParseAnd(atoms, depth));
      lhs = Condition::MakeOr(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ConditionPtr> ParseAnd(std::vector<Atom>* atoms, int depth) {
    GUMBO_ASSIGN_OR_RETURN(ConditionPtr lhs, ParseUnary(atoms, depth));
    while (Peek().kind == TokKind::kAnd) {
      Next();
      GUMBO_ASSIGN_OR_RETURN(ConditionPtr rhs, ParseUnary(atoms, depth));
      lhs = Condition::MakeAnd(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ConditionPtr> ParseUnary(std::vector<Atom>* atoms, int depth) {
    // NOT and '(' recurse: bounded nesting fails with a ParseError where
    // unbounded nesting would overflow the stack.
    if (depth > kMaxNesting) {
      return ErrorAt(Peek(), "condition nested too deeply");
    }
    if (Peek().kind == TokKind::kNot) {
      Next();
      GUMBO_ASSIGN_OR_RETURN(ConditionPtr child, ParseUnary(atoms, depth + 1));
      return Condition::MakeNot(std::move(child));
    }
    if (Peek().kind == TokKind::kLParen) {
      Next();
      GUMBO_ASSIGN_OR_RETURN(ConditionPtr inner, ParseOr(atoms, depth + 1));
      GUMBO_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return inner;
    }
    GUMBO_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    return Condition::MakeAtom(InternAtom(std::move(atom), atoms));
  }

  static constexpr int kMaxNesting = 256;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Dictionary* dict_;
};

}  // namespace

Result<SgfQuery> ParseSgf(std::string_view text, Dictionary* dict) {
  std::vector<Token> tokens;
  Lexer lexer(text);
  GUMBO_RETURN_IF_ERROR(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens), dict);
  GUMBO_ASSIGN_OR_RETURN(SgfQuery query, parser.ParseProgram());
  GUMBO_RETURN_IF_ERROR(ValidateSgf(query));
  return query;
}

Result<BsgfQuery> ParseBsgf(std::string_view text, Dictionary* dict) {
  std::vector<Token> tokens;
  Lexer lexer(text);
  GUMBO_RETURN_IF_ERROR(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens), dict);
  GUMBO_ASSIGN_OR_RETURN(BsgfQuery query, parser.ParseSingle());
  GUMBO_RETURN_IF_ERROR(ValidateBsgf(query));
  return query;
}

}  // namespace gumbo::sgf
