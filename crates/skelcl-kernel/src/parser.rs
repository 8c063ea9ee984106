//! Recursive-descent parser for SkelCL C with operator-precedence expression
//! parsing and statement-level error recovery.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::lex;
use crate::source::SourceFile;
use crate::token::{Token, TokenKind};
use crate::types::{AddressSpace, ScalarType, Type};

/// Parses `file` into a [`TranslationUnit`].
///
/// Parse errors are recorded in `diags`; the returned tree contains every
/// function that parsed successfully, so later phases can still analyse a
/// partially broken unit.
pub fn parse(file: &SourceFile, diags: &mut Diagnostics) -> TranslationUnit {
    let tokens = lex(file, diags);
    let mut p = Parser::new(file, tokens, diags);
    p.translation_unit()
}

/// Parses a single expression (used by tests and by SkelCL's user-function
/// validation). Returns `None` if the input is not a complete expression.
pub fn parse_expr(file: &SourceFile, diags: &mut Diagnostics) -> Option<Expr> {
    let tokens = lex(file, diags);
    let mut p = Parser::new(file, tokens, diags);
    let e = p.expr().ok()?;
    if p.peek().kind != TokenKind::Eof {
        p.error_here("expected end of expression");
        return None;
    }
    if p.diags.has_errors() {
        None
    } else {
        Some(e)
    }
}

type PResult<T> = Result<T, ()>;

/// How deeply statements and expressions may nest: the parser's own
/// recursion and every later walk over the tree (sema, inlining, HIR → MIR
/// lowering, `pretty`, constant folding) recurse once per level, so a
/// budget here is the one guard they all need. One level is a statement, a
/// unary, cast or parenthesised operand, an assignment's or a
/// conditional's right-hand side, or one more operator or postfix
/// operation on a left-associative chain; an accepted tree is at most this
/// deep, and its deepest walk fits a 2 MiB stack in a debug build.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    file: &'a SourceFile,
    tokens: Vec<Token>,
    pos: usize,
    diags: &'a mut Diagnostics,
    /// Nesting levels entered in the current function (see
    /// [`MAX_NESTING`]).
    depth: usize,
    /// `{` open in the current function.
    braces: usize,
    /// The current function nested too deeply: it is reported and skipped.
    too_deep: bool,
}

impl<'a> Parser<'a> {
    fn new(file: &'a SourceFile, tokens: Vec<Token>, diags: &'a mut Diagnostics) -> Self {
        Parser {
            file,
            tokens,
            pos: 0,
            diags,
            depth: 0,
            braces: 0,
            too_deep: false,
        }
    }

    // ----- nesting budget ----------------------------------------------------

    /// Runs `f` one nesting level deeper, or — past [`MAX_NESTING`] —
    /// reports it and fails.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.deeper()?;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Enters one more level (the caller leaves it; a failed parse may
    /// not, and the statement recovery resets the counts). Past the
    /// budget: one error at the current token, then everything up to the
    /// end of the function — or of the input — is skipped by a flat scan,
    /// and every enclosing parse fails without recovering.
    fn deeper(&mut self) -> PResult<()> {
        if self.depth < MAX_NESTING {
            self.depth += 1;
            return Ok(());
        }
        self.error_here(format!(
            "statements and expressions nest more than {MAX_NESTING} levels deep"
        ));
        self.too_deep = true;
        let mut open = self.braces;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => break,
                TokenKind::LBrace => open += 1,
                TokenKind::RBrace if open <= 1 => {
                    self.bump();
                    break;
                }
                TokenKind::RBrace => open -= 1,
                _ => {}
            }
            self.bump();
        }
        Err(())
    }

    // ----- token plumbing ----------------------------------------------------

    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> TokenKind {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> Option<Token> {
        if self.at(kind) {
            Some(self.bump())
        } else {
            None
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if let Some(t) = self.eat(kind) {
            Ok(t)
        } else {
            let found = self.peek();
            self.diags.error(
                found.span,
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    found.kind.describe()
                ),
            );
            Err(())
        }
    }

    fn error_here(&mut self, msg: impl Into<String>) {
        let span = self.peek().span;
        self.diags.error(span, msg);
    }

    fn text(&self, t: Token) -> &'a str {
        self.file.snippet(t.span)
    }

    // ----- top level ---------------------------------------------------------

    fn translation_unit(&mut self) -> TranslationUnit {
        let mut functions = Vec::new();
        while !self.at(TokenKind::Eof) {
            match self.function() {
                Ok(f) => functions.push(f),
                Err(()) => self.recover_to_function_start(),
            }
        }
        TranslationUnit { functions }
    }

    /// Skips tokens until something that plausibly starts a new function.
    fn recover_to_function_start(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::KwKernel => return,
                k if depth == 0 && k.starts_type() => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn function(&mut self) -> PResult<Function> {
        (self.depth, self.braces, self.too_deep) = (0, 0, false);
        let start = self.peek().span;
        let is_kernel = self.eat(TokenKind::KwKernel).is_some();
        let return_type = self.type_spec(true)?;
        let name_tok = self.expect(TokenKind::Ident)?;
        let name = self.text(name_tok).to_string();
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if self.eat(TokenKind::Comma).is_none() {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Function {
            is_kernel,
            return_type,
            name,
            name_span: name_tok.span,
            params,
            body,
            span,
        })
    }

    fn param(&mut self) -> PResult<Param> {
        let start = self.peek().span;
        let ty = self.type_spec(false)?;
        let name_tok = self.expect(TokenKind::Ident)?;
        Ok(Param {
            ty,
            name: self.text(name_tok).to_string(),
            span: start.to(name_tok.span),
        })
    }

    // ----- types -------------------------------------------------------------

    /// Parses a type specifier: qualifiers, base scalar type, optional `*`.
    /// `allow_void` permits a bare `void` (function returns).
    fn type_spec(&mut self, allow_void: bool) -> PResult<Type> {
        let (is_const, space, scalar, is_void) = self.base_type()?;
        if is_void {
            if self.eat(TokenKind::Star).is_some() {
                self.error_here("pointers to void are not supported in SkelCL C");
                return Err(());
            }
            if !allow_void {
                self.error_here("`void` is only valid as a return type");
                return Err(());
            }
            return Ok(Type::Void);
        }
        if self.eat(TokenKind::Star).is_some() {
            // Trailing `const` after `*` (pointer itself const) is accepted
            // and ignored: SkelCL C pointers cannot be reseated anyway.
            let _ = self.eat(TokenKind::KwConst);
            let space = if space == AddressSpace::Private {
                AddressSpace::Private
            } else {
                space
            };
            Ok(Type::Pointer {
                pointee: scalar,
                space,
                is_const,
            })
        } else {
            if space != AddressSpace::Private {
                // e.g. `__global int x` as a value: invalid.
                self.error_here(format!(
                    "address-space qualifier `{space}` requires a pointer or array type"
                ));
            }
            Ok(Type::Scalar(scalar))
        }
    }

    /// Parses qualifiers and a base scalar type. Returns
    /// `(is_const, address_space, scalar, is_void)`.
    fn base_type(&mut self) -> PResult<(bool, AddressSpace, ScalarType, bool)> {
        let mut is_const = false;
        let mut space = AddressSpace::Private;
        loop {
            match self.peek_kind() {
                TokenKind::KwConst => {
                    self.bump();
                    is_const = true;
                }
                TokenKind::KwGlobal => {
                    self.bump();
                    space = AddressSpace::Global;
                }
                TokenKind::KwLocal => {
                    self.bump();
                    space = AddressSpace::Local;
                }
                TokenKind::KwPrivate => {
                    self.bump();
                    space = AddressSpace::Private;
                }
                _ => break,
            }
        }
        use ScalarType::*;
        let tok = self.peek();
        let scalar = match tok.kind {
            TokenKind::KwVoid => {
                self.bump();
                return Ok((is_const, space, Int, true));
            }
            TokenKind::KwBool => Bool,
            TokenKind::KwChar => Char,
            TokenKind::KwUchar => UChar,
            TokenKind::KwShort => Short,
            TokenKind::KwUshort => UShort,
            TokenKind::KwInt => Int,
            TokenKind::KwUint => UInt,
            TokenKind::KwLong => Long,
            TokenKind::KwUlong => ULong,
            TokenKind::KwFloat => Float,
            TokenKind::KwDouble => Double,
            TokenKind::KwUnsigned | TokenKind::KwSigned => {
                let signed = tok.kind == TokenKind::KwSigned;
                self.bump();
                let base = match self.peek_kind() {
                    TokenKind::KwChar => {
                        self.bump();
                        if signed {
                            Char
                        } else {
                            UChar
                        }
                    }
                    TokenKind::KwShort => {
                        self.bump();
                        if signed {
                            Short
                        } else {
                            UShort
                        }
                    }
                    TokenKind::KwInt => {
                        self.bump();
                        if signed {
                            Int
                        } else {
                            UInt
                        }
                    }
                    TokenKind::KwLong => {
                        self.bump();
                        if signed {
                            Long
                        } else {
                            ULong
                        }
                    }
                    // Bare `unsigned`.
                    _ => {
                        if signed {
                            Int
                        } else {
                            UInt
                        }
                    }
                };
                // `const` may also follow the base type (e.g. `uchar const`).
                if self.at(TokenKind::KwConst) {
                    self.bump();
                }
                return Ok((is_const, space, base, false));
            }
            other => {
                self.diags.error(
                    tok.span,
                    format!("expected a type, found {}", other.describe()),
                );
                return Err(());
            }
        };
        self.bump();
        if self.at(TokenKind::KwConst) {
            self.bump();
            is_const = true;
        }
        Ok((is_const, space, scalar, false))
    }

    // ----- statements ----------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        let open = self.expect(TokenKind::LBrace)?;
        self.braces += 1;
        let mut stmts = Vec::new();
        loop {
            match self.peek_kind() {
                TokenKind::RBrace => break,
                TokenKind::Eof => {
                    self.error_here("expected `}` before end of input");
                    return Err(());
                }
                _ => {
                    // A failed parse leaves the levels and braces it entered.
                    let (depth, braces) = (self.depth, self.braces);
                    match self.stmt() {
                        Ok(s) => stmts.push(s),
                        Err(()) if self.too_deep => return Err(()),
                        Err(()) => {
                            (self.depth, self.braces) = (depth, braces);
                            self.recover_in_block();
                        }
                    }
                }
            }
        }
        let close = self.expect(TokenKind::RBrace)?;
        self.braces -= 1;
        Ok(Block {
            stmts,
            span: open.span.to(close.span),
        })
    }

    /// After a statement parse error, skips to the next `;` (consumed) or to
    /// a `}`/EOF (left in place).
    fn recover_in_block(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace if depth == 0 => return,
                TokenKind::RBrace => {
                    depth -= 1;
                    self.bump();
                }
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_at)
    }

    fn stmt_at(&mut self) -> PResult<Stmt> {
        match self.peek_kind() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                let t = self.bump();
                Ok(Stmt::Empty(t.span))
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwDo => self.do_while_stmt(),
            TokenKind::KwReturn => {
                let kw = self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let semi = self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return {
                    value,
                    span: kw.span.to(semi.span),
                })
            }
            TokenKind::KwBreak => {
                let kw = self.bump();
                let semi = self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break(kw.span.to(semi.span)))
            }
            TokenKind::KwContinue => {
                let kw = self.bump();
                let semi = self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue(kw.span.to(semi.span)))
            }
            k if k.starts_type() => {
                let d = self.var_decl()?;
                Ok(Stmt::Decl(d))
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let kw = self.bump();
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let (else_branch, end) = if self.eat(TokenKind::KwElse).is_some() {
            let e = self.stmt()?;
            let sp = e.span();
            (Some(Box::new(e)), sp)
        } else {
            (None, then_branch.span())
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span: kw.span.to(end),
        })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        let kw = self.bump();
        self.expect(TokenKind::LParen)?;
        let init = if self.at(TokenKind::Semi) {
            self.bump();
            None
        } else if self.peek_kind().starts_type() {
            Some(Box::new(Stmt::Decl(self.var_decl()?)))
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.at(TokenKind::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = kw.span.to(body.span());
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let kw = self.bump();
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let span = kw.span.to(body.span());
        Ok(Stmt::While { cond, body, span })
    }

    fn do_while_stmt(&mut self) -> PResult<Stmt> {
        let kw = self.bump();
        let body = Box::new(self.stmt()?);
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let semi = self.expect(TokenKind::Semi)?;
        Ok(Stmt::DoWhile {
            body,
            cond,
            span: kw.span.to(semi.span),
        })
    }

    /// Parses a declaration statement including the trailing `;`.
    ///
    /// Note: in SkelCL C the pointer-ness of a declaration applies to every
    /// declarator in the statement (`float* p, q;` declares two pointers),
    /// unlike C where `*` binds per declarator.
    fn var_decl(&mut self) -> PResult<VarDecl> {
        let start = self.peek().span;
        let (is_const, space, scalar, is_void) = self.base_type()?;
        if is_void {
            self.error_here("cannot declare a variable of type `void`");
            return Err(());
        }
        let is_pointer = self.eat(TokenKind::Star).is_some();
        if is_pointer {
            let _ = self.eat(TokenKind::KwConst);
        }
        let mut declarators = Vec::new();
        loop {
            let name_tok = self.expect(TokenKind::Ident)?;
            let name = self.text(name_tok).to_string();
            let mut d_span = name_tok.span;
            let array_size = if self.eat(TokenKind::LBracket).is_some() {
                let size = self.expr()?;
                let close = self.expect(TokenKind::RBracket)?;
                d_span = d_span.to(close.span);
                Some(size)
            } else {
                None
            };
            let init = if self.eat(TokenKind::Eq).is_some() {
                let e = self.assignment_expr()?;
                d_span = d_span.to(e.span());
                Some(e)
            } else {
                None
            };
            declarators.push(Declarator {
                name,
                array_size,
                init,
                span: d_span,
            });
            if self.eat(TokenKind::Comma).is_none() {
                break;
            }
        }
        let semi = self.expect(TokenKind::Semi)?;
        Ok(VarDecl {
            space,
            is_const,
            scalar,
            is_pointer,
            declarators,
            span: start.to(semi.span),
        })
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.assignment_expr()
    }

    fn assignment_expr(&mut self) -> PResult<Expr> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => None,
            TokenKind::PlusEq => Some(BinaryOp::Add),
            TokenKind::MinusEq => Some(BinaryOp::Sub),
            TokenKind::StarEq => Some(BinaryOp::Mul),
            TokenKind::SlashEq => Some(BinaryOp::Div),
            TokenKind::PercentEq => Some(BinaryOp::Rem),
            TokenKind::AmpEq => Some(BinaryOp::BitAnd),
            TokenKind::PipeEq => Some(BinaryOp::BitOr),
            TokenKind::CaretEq => Some(BinaryOp::BitXor),
            TokenKind::ShlEq => Some(BinaryOp::Shl),
            TokenKind::ShrEq => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::assignment_expr)?;
        let span = lhs.span().to(rhs.span());
        Ok(Expr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn ternary_expr(&mut self) -> PResult<Expr> {
        let cond = self.binary_expr(0)?;
        if self.eat(TokenKind::Question).is_none() {
            return Ok(cond);
        }
        let then_expr = self.nested(Self::expr)?;
        self.expect(TokenKind::Colon)?;
        let else_expr = self.nested(Self::assignment_expr)?;
        let span = cond.span().to(else_expr.span());
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then_expr: Box::new(then_expr),
            else_expr: Box::new(else_expr),
            span,
        })
    }

    /// Precedence-climbing binary expression parser. Each operator of a
    /// chain nests the tree one level deeper, from before its right
    /// operand on.
    fn binary_expr(&mut self, min_prec: u8) -> PResult<Expr> {
        let (mut lhs, mut levels) = (self.unary_expr()?, 0);
        while let Some((op, prec)) = binary_op_of(self.peek_kind()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            self.deeper()?;
            levels += 1;
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.depth -= levels;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        self.nested(Self::unary_at)
    }

    fn unary_at(&mut self) -> PResult<Expr> {
        let t = self.peek();
        let op = match t.kind {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Plus => Some(UnaryOp::Plus),
            TokenKind::Bang => Some(UnaryOp::Not),
            TokenKind::Tilde => Some(UnaryOp::BitNot),
            TokenKind::Star => Some(UnaryOp::Deref),
            TokenKind::Amp => Some(UnaryOp::AddrOf),
            TokenKind::PlusPlus => Some(UnaryOp::PreInc),
            TokenKind::MinusMinus => Some(UnaryOp::PreDec),
            TokenKind::LParen if self.peek_ahead(1).starts_type() => {
                // A cast: `(type) unary-expr`.
                self.bump();
                let ty = self.type_spec(false)?;
                let close = self.expect(TokenKind::RParen)?;
                let expr = self.unary_expr()?;
                let span = t.span.to(close.span).to(expr.span());
                return Ok(Expr::Cast {
                    ty,
                    expr: Box::new(expr),
                    span,
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary_expr()?;
            let span = t.span.to(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        self.postfix_expr()
    }

    /// A primary expression and its postfix operations, each of which
    /// nests the tree one level deeper.
    fn postfix_expr(&mut self) -> PResult<Expr> {
        let (mut e, mut levels) = (self.primary_expr()?, 0);
        loop {
            if matches!(
                self.peek_kind(),
                TokenKind::LBracket
                    | TokenKind::LParen
                    | TokenKind::PlusPlus
                    | TokenKind::MinusMinus
            ) {
                self.deeper()?;
                levels += 1;
            }
            match self.peek_kind() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    let close = self.expect(TokenKind::RBracket)?;
                    let span = e.span().to(close.span);
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        span,
                    };
                }
                TokenKind::LParen => {
                    let Expr::Ident {
                        name,
                        span: callee_span,
                    } = &e
                    else {
                        self.error_here("only named functions can be called");
                        return Err(());
                    };
                    let callee = name.clone();
                    let callee_span = *callee_span;
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        loop {
                            args.push(self.assignment_expr()?);
                            if self.eat(TokenKind::Comma).is_none() {
                                break;
                            }
                        }
                    }
                    let close = self.expect(TokenKind::RParen)?;
                    let span = callee_span.to(close.span);
                    e = Expr::Call {
                        callee,
                        callee_span,
                        args,
                        span,
                    };
                }
                TokenKind::PlusPlus => {
                    let t = self.bump();
                    let span = e.span().to(t.span);
                    e = Expr::Unary {
                        op: UnaryOp::PostInc,
                        expr: Box::new(e),
                        span,
                    };
                }
                TokenKind::MinusMinus => {
                    let t = self.bump();
                    let span = e.span().to(t.span);
                    e = Expr::Unary {
                        op: UnaryOp::PostDec,
                        expr: Box::new(e),
                        span,
                    };
                }
                _ => break,
            }
        }
        self.depth -= levels;
        Ok(e)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let t = self.peek();
        match t.kind {
            TokenKind::IntLit => {
                self.bump();
                self.int_lit(t)
            }
            TokenKind::FloatLit => {
                self.bump();
                self.float_lit(t)
            }
            TokenKind::CharLit => {
                self.bump();
                self.char_lit(t)
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::BoolLit {
                    value: true,
                    span: t.span,
                })
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::BoolLit {
                    value: false,
                    span: t.span,
                })
            }
            TokenKind::Ident => {
                self.bump();
                Ok(Expr::Ident {
                    name: self.text(t).to_string(),
                    span: t.span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                self.diags.error(
                    t.span,
                    format!("expected an expression, found {}", other.describe()),
                );
                Err(())
            }
        }
    }

    fn int_lit(&mut self, t: Token) -> PResult<Expr> {
        let text = self.text(t);
        let lower = text.to_ascii_lowercase();
        let body = lower.trim_end_matches(['u', 'l']);
        let suffix = &lower[body.len()..];
        let unsigned = suffix.contains('u');
        let long = suffix.contains('l');
        let parsed = if let Some(hex) = body.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            body.parse::<u64>()
        };
        match parsed {
            Ok(value) => Ok(Expr::IntLit {
                value,
                unsigned,
                long,
                span: t.span,
            }),
            Err(_) => {
                self.diags
                    .error(t.span, format!("integer literal `{text}` is out of range"));
                Err(())
            }
        }
    }

    fn float_lit(&mut self, t: Token) -> PResult<Expr> {
        let text = self.text(t);
        let single = text.ends_with(['f', 'F']);
        let body = text.trim_end_matches(['f', 'F']);
        match body.parse::<f64>() {
            Ok(value) => Ok(Expr::FloatLit {
                value,
                single,
                span: t.span,
            }),
            Err(_) => {
                self.diags
                    .error(t.span, format!("invalid floating-point literal `{text}`"));
                Err(())
            }
        }
    }

    fn char_lit(&mut self, t: Token) -> PResult<Expr> {
        let text = self.text(t);
        let inner = &text[1..text.len().saturating_sub(1)];
        let value = match inner.as_bytes() {
            [b'\\', esc] => match esc {
                b'n' => b'\n' as i8,
                b't' => b'\t' as i8,
                b'r' => b'\r' as i8,
                b'0' => 0,
                b'\\' => b'\\' as i8,
                b'\'' => b'\'' as i8,
                other => {
                    self.diags.error(
                        t.span,
                        format!("unknown escape sequence `\\{}`", *other as char),
                    );
                    return Err(());
                }
            },
            [c] => *c as i8,
            _ => {
                self.diags.error(t.span, "invalid character literal");
                return Err(());
            }
        };
        Ok(Expr::CharLit {
            value,
            span: t.span,
        })
    }
}

/// Maps a token to its binary operator and precedence (higher binds tighter).
fn binary_op_of(kind: TokenKind) -> Option<(BinaryOp, u8)> {
    use BinaryOp::*;
    use TokenKind as K;
    Some(match kind {
        K::PipePipe => (LogicalOr, 1),
        K::AmpAmp => (LogicalAnd, 2),
        K::Pipe => (BitOr, 3),
        K::Caret => (BitXor, 4),
        K::Amp => (BitAnd, 5),
        K::EqEq => (Eq, 6),
        K::BangEq => (Ne, 6),
        K::Lt => (Lt, 7),
        K::Le => (Le, 7),
        K::Gt => (Gt, 7),
        K::Ge => (Ge, 7),
        K::Shl => (Shl, 8),
        K::Shr => (Shr, 8),
        K::Plus => (Add, 9),
        K::Minus => (Sub, 9),
        K::Star => (Mul, 10),
        K::Slash => (Div, 10),
        K::Percent => (Rem, 10),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        assert!(!d.has_errors(), "parse errors:\n{}", d.render(&f));
        tu
    }

    fn parse_err(src: &str) -> String {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let _ = parse(&f, &mut d);
        assert!(d.has_errors(), "expected parse errors for: {src}");
        d.render(&f)
    }

    #[test]
    fn parses_paper_map_function() {
        let tu = parse_ok("float func(float x){ return -x; }");
        assert_eq!(tu.functions.len(), 1);
        let f = &tu.functions[0];
        assert_eq!(f.name, "func");
        assert!(!f.is_kernel);
        assert_eq!(f.return_type, Type::scalar(ScalarType::Float));
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Type::scalar(ScalarType::Float));
    }

    #[test]
    fn parses_kernel_with_global_pointers() {
        let tu = parse_ok(
            "__kernel void sum_up(__global float* m_in, __global float* m_out, int width) { }",
        );
        let f = &tu.functions[0];
        assert!(f.is_kernel);
        assert_eq!(f.return_type, Type::Void);
        assert_eq!(f.params[0].ty, Type::global_ptr(ScalarType::Float));
        assert_eq!(f.params[2].ty, Type::scalar(ScalarType::Int));
    }

    #[test]
    fn parses_const_pointer_param() {
        let tu = parse_ok("char func(const char* img) { return img[0]; }");
        let f = &tu.functions[0];
        assert_eq!(
            f.params[0].ty,
            Type::Pointer {
                pointee: ScalarType::Char,
                space: AddressSpace::Private,
                is_const: true
            }
        );
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let tu = parse_ok("int f(int a, int b, int c){ return a + b * c; }");
        let body = &tu.functions[0].body.stmts[0];
        let Stmt::Return {
            value: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = body
        else {
            panic!("expected return of binary expr, got {body:?}");
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn shift_and_relational_precedence() {
        let tu = parse_ok("bool f(int a){ return a << 1 < a + 2; }");
        let Stmt::Return {
            value: Some(Expr::Binary { op, .. }),
            ..
        } = &tu.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Lt);
    }

    #[test]
    fn assignment_is_right_associative() {
        let tu = parse_ok("void f(int a, int b){ a = b = 1; }");
        let Stmt::Expr(Expr::Assign { op: None, rhs, .. }) = &tu.functions[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(**rhs, Expr::Assign { .. }));
    }

    #[test]
    fn compound_assignment_ops() {
        let tu = parse_ok("void f(int a){ a += 1; a <<= 2; a %= 3; }");
        let ops: Vec<_> = tu.functions[0]
            .body
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr(Expr::Assign { op, .. }) => *op,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                Some(BinaryOp::Add),
                Some(BinaryOp::Shl),
                Some(BinaryOp::Rem)
            ]
        );
    }

    #[test]
    fn cast_vs_parenthesized_expression() {
        let tu = parse_ok("float f(int x){ return (float)x + (x); }");
        let Stmt::Return {
            value: Some(Expr::Binary { lhs, .. }),
            ..
        } = &tu.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(
            **lhs,
            Expr::Cast {
                ty: Type::Scalar(ScalarType::Float),
                ..
            }
        ));
    }

    #[test]
    fn for_loop_with_decl_init() {
        let tu =
            parse_ok("int f(int n){ int s = 0; for (int i = 0; i < n; ++i) s += i; return s; }");
        let Stmt::For {
            init, cond, step, ..
        } = &tu.functions[0].body.stmts[1]
        else {
            panic!()
        };
        assert!(matches!(**init.as_ref().unwrap(), Stmt::Decl(_)));
        assert!(cond.is_some());
        assert!(step.is_some());
    }

    #[test]
    fn nested_loops_from_paper_listing() {
        // Listing 1.2 shape: nested for loops and a call to get().
        let tu = parse_ok(
            "float func(float* m_in){
                float sum = 0.0f;
                for (int i = -1; i <= 1; ++i)
                    for (int j = -1; j <= 1; ++j)
                        sum += get(m_in, i, j);
                return sum;
            }",
        );
        let Stmt::For { body, .. } = &tu.functions[0].body.stmts[1] else {
            panic!()
        };
        assert!(matches!(**body, Stmt::For { .. }));
    }

    #[test]
    fn local_array_declaration() {
        let tu = parse_ok("__kernel void k(){ __local float tile[256]; tile[0] = 1.0f; }");
        let Stmt::Decl(d) = &tu.functions[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(d.space, AddressSpace::Local);
        assert_eq!(d.scalar, ScalarType::Float);
        assert!(d.declarators[0].array_size.is_some());
    }

    #[test]
    fn multiple_declarators() {
        let tu = parse_ok("void f(){ int i = 0, j, k = 2; }");
        let Stmt::Decl(d) = &tu.functions[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(d.declarators.len(), 3);
        assert!(d.declarators[0].init.is_some());
        assert!(d.declarators[1].init.is_none());
    }

    #[test]
    fn ternary_and_call() {
        let tu = parse_ok("float f(float a, float b){ return a < b ? fmin(a, b) : b; }");
        let Stmt::Return {
            value: Some(Expr::Ternary { then_expr, .. }),
            ..
        } = &tu.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(**then_expr, Expr::Call { ref callee, .. } if callee == "fmin"));
    }

    #[test]
    fn do_while_and_unary_ops() {
        parse_ok("void f(int n){ int i = 0; do { i++; } while (i < n); }");
        parse_ok("int f(int x){ return ~-!x; }");
        parse_ok("int f(int* p){ return *p + p[1]; }");
    }

    #[test]
    fn postfix_increment_parsed() {
        let tu = parse_ok("void f(int i){ i++; --i; }");
        assert!(matches!(
            tu.functions[0].body.stmts[0],
            Stmt::Expr(Expr::Unary {
                op: UnaryOp::PostInc,
                ..
            })
        ));
        assert!(matches!(
            tu.functions[0].body.stmts[1],
            Stmt::Expr(Expr::Unary {
                op: UnaryOp::PreDec,
                ..
            })
        ));
    }

    #[test]
    fn unsigned_base_types() {
        let tu = parse_ok("unsigned int f(unsigned char c, unsigned x){ return c + x; }");
        assert_eq!(tu.functions[0].return_type, Type::scalar(ScalarType::UInt));
        assert_eq!(
            tu.functions[0].params[0].ty,
            Type::scalar(ScalarType::UChar)
        );
        assert_eq!(tu.functions[0].params[1].ty, Type::scalar(ScalarType::UInt));
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let tu = parse_ok("void f(int a){ if (a) if (a > 1) a = 2; else a = 3; }");
        let Stmt::If {
            then_branch,
            else_branch: outer_else,
            ..
        } = &tu.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(outer_else.is_none());
        assert!(matches!(
            **then_branch,
            Stmt::If {
                else_branch: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn error_missing_semicolon() {
        let log = parse_err("void f(){ int x = 1 int y = 2; }");
        assert!(log.contains("expected"), "log: {log}");
    }

    #[test]
    fn error_recovery_keeps_later_functions() {
        let f = SourceFile::new(
            "t.cl",
            "void bad(){ int = ; }\nint good(int x){ return x; }",
        );
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        assert!(d.has_errors());
        assert!(tu.function("good").is_some());
    }

    #[test]
    fn error_address_space_on_value() {
        let log = parse_err("void f(__global int x){ }");
        assert!(log.contains("requires a pointer"), "log: {log}");
    }

    #[test]
    fn error_void_variable() {
        let log = parse_err("void f(){ void x; }");
        assert!(log.contains("void"), "log: {log}");
    }

    #[test]
    fn hex_and_suffixed_literals() {
        let tu = parse_ok("void f(){ int a = 0xFF; unsigned b = 7u; long c = 9L; }");
        let Stmt::Decl(d) = &tu.functions[0].body.stmts[0] else {
            panic!()
        };
        let Some(Expr::IntLit { value, .. }) = &d.declarators[0].init else {
            panic!()
        };
        assert_eq!(*value, 255);
    }

    #[test]
    fn char_literal_escapes() {
        let tu = parse_ok(r"void f(){ char a = 'x'; char b = '\n'; char c = '\0'; }");
        let inits: Vec<i8> = tu.functions[0]
            .body
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Decl(d) => match d.declarators[0].init {
                    Some(Expr::CharLit { value, .. }) => value,
                    _ => panic!(),
                },
                _ => panic!(),
            })
            .collect();
        assert_eq!(inits, vec![b'x' as i8, b'\n' as i8, 0]);
    }

    #[test]
    fn parse_expr_entry_point() {
        let f = SourceFile::new("e.cl", "1 + 2 * 3");
        let mut d = Diagnostics::new();
        let e = parse_expr(&f, &mut d).unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));

        let f = SourceFile::new("e.cl", "1 +");
        let mut d = Diagnostics::new();
        assert!(parse_expr(&f, &mut d).is_none());
    }
}
